"""Gram-matrix positivity tests for the kernels N(x, y)^(-lambda).

A kernel is positive definite iff every finite Gram matrix of evaluations is
positive semidefinite, so a single configuration with a negative eigenvalue
is a certificate that the scaled metric is not projectively induced.  This
module builds those Gram matrices and searches symmetric point designs for
violating configurations.

Powers N^(-lambda) use the principal logarithm; that is only single-valued
while N stays in the right half-plane, so every evaluation tracks a
branch_ok flag instead of failing silently.

By Faraut and Koranyi (J. Funct. Anal. 88, 1990), N^(-lambda) is the sum
over partitions m of (lambda)_m K_m, with the generalized Pochhammer symbol
(lambda)_m = prod_i (lambda - (i - 1) a/2)_{m_i}.  In the Wallach gap
((k - 2) a/2, (k - 1) a/2) the first negative coefficient is that of
m = (1^k), whose space holds the k-minors of Z (z.z on IV).  A generic
point cloud hides that term under the positive ones of lower degree.  An
orbit of a finite group that fixes N does not: by the projection formula
(Serre, Linear Representations of Finite Groups, 2.6) its Gram matrix
splits along the group's characters, and along the character used here
(det S on I, prod z_i^2 on III, (-1)^m on IV) every polynomial of degree
below k sums to zero, so at a small scale the terms of degree k, (1^k)
among them, lead.

The designs, base points of unit size moved by their group and then
scaled by t < 1, are

  I:p,q   the k x k identity block in the top-left corner of Z under the
          2^k k! signed permutations of its first k rows;
  III:n   (P_s + P_s^T)/2 for the permutation matrices P_s of S_k in the
          top-left corner, under Z -> D Z D with D = diag(z_1..z_k, 1..1)
          and z_i^4 = 1, distinct points only (8 at k = 2, 64 at k = 3,
          608 at k = 4);
  IV:n    the 4n points i^m e_j, at k = 2, the rank;
  CH:d    none: rank 1 has no gap.

search_violation evaluates each design at the scales _SCALES, largest
first, so no search is random and no seed steers it.  Its evals_used
counts Gram evaluations, one per scale tried, and restarts_used designs
tried, one per k; a witness is shrunk on, and reported from, the Gram
matrix already evaluated.  The budget (the CLI's --budget) is the largest
design, in points, that is tried, which bounds the work; every Gram
evaluation is also charged to the memory guard before it gathers its pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import DomainModel, norm_matrix, parse_domain, upper_triangle
from .multiindex import check_memory

DEFAULT_WITNESS_TOL = 1e-6
# Gauge cap for sampled configurations (domains.sample_points); the design search samples none.
DEFAULT_RADIUS_CAP = 0.7

# Scales t of each design, largest first; the largest that gives a witness wins.
_SCALES = (0.6, 0.5, 0.4, 0.3, 0.2)
_FOURTH_ROOTS = np.array([1.0, 1j, -1.0, -1j])
# Bytes per coordinate of a point pair that a Gram evaluation holds at its
# peak: ten complex words, for the two gathered points and, on I and III,
# their matrices of entries and the elimination's temporaries (traced at
# 3d to 9d words a pair).
_PAIR_BYTES_PER_COORD = 160
# One configuration: a (k, d) array or a sequence of k points.
_Points = Sequence[np.ndarray] | np.ndarray


class BranchError(Exception):
    """N(x, y) left the right half-plane; the principal power is invalid."""


@dataclass(frozen=True, eq=False)
class GramReport:
    points: tuple[np.ndarray, ...]
    lam: float
    min_eigenvalue: float
    psd: bool
    branch_ok: bool


@dataclass(frozen=True, eq=False)
class SearchResult:
    found: bool
    report: GramReport | None
    seed: int
    restarts_used: int
    evals_used: int


def gram_matrix(
    dom: DomainModel, lam: float, points: _Points, require_branch: bool = True
) -> tuple[np.ndarray, bool]:
    """Hermitian matrix of N(x_a, x_b)^(-lambda) values and the branch flag.

    points of any shape but (k, d) are a ValueError.  Entries come from one
    evaluation of the principal power |N|^(-lambda) e^(-i lambda Arg N), in
    real arithmetic, on the upper triangle of the norm matrix, mirrored by
    conjugation, so Hermitian symmetry is exact and the diagonal is real.  A
    pair whose N is NaN or has Re N <= 0 violates the branch; with
    require_branch that raises BranchError naming the first offending pair
    in row-major order.  The evaluation is charged to check_memory first.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != dom.d:
        raise ValueError(f"{dom.spec_string} needs (k, {dom.d}) points, got shape {pts.shape}")
    k = len(pts)
    check_memory(_PAIR_BYTES_PER_COORD * dom.d * k * (k + 1) // 2, f"a Gram matrix of {k} points")
    rows, cols = upper_triangle(k)
    nv = norm_matrix(dom, pts[rows, None, :], pts[cols, None, :])[:, 0, 0]
    bad = ~(nv.real > 0.0)
    if require_branch and bad.any():
        i = int(np.argmax(bad))
        raise BranchError(f"Re N <= 0 at point pair ({rows[i]}, {cols[i]}): N = {complex(nv[i])}")
    # exp(-lambda Log N) without complex exp and log: the same branch, to rounding
    modulus = np.abs(nv) ** -lam
    theta = -lam * np.arctan2(nv.imag, nv.real)
    values = np.empty_like(nv)
    values.real = modulus * np.cos(theta)
    values.imag = modulus * np.sin(theta)
    h = np.empty((k, k), dtype=np.complex128)
    h[cols, rows] = values.conj()
    h[rows, cols] = values
    # mathematically real; drop evaluation noise in the imaginary part
    h[np.diag_indices(k)] = values[rows == cols].real
    return h, not bad.any()


def min_gram_eigenvalue(
    dom: DomainModel, lam: float, points: _Points, require_branch: bool = True
) -> tuple[float, bool]:
    h, branch_ok = gram_matrix(dom, lam, points, require_branch)
    return float(np.linalg.eigvalsh(h)[0]), branch_ok


def _witness_threshold(h: np.ndarray) -> float:
    """A configuration is a witness when its min eigenvalue is below
    -DEFAULT_WITNESS_TOL * max(1, max |H_ab|): the eigensolver's rounding grows with
    the entries, which N^(-lambda) can push far past 1.  Non-finite entries
    give a non-finite threshold."""
    return -DEFAULT_WITNESS_TOL * np.maximum(np.abs(h).max(), 1.0)


def _report(
    dom: DomainModel, lam: float, points: _Points, h: np.ndarray, branch_ok: bool
) -> GramReport:
    """gram_report of points from their Gram matrix h."""
    if not np.isfinite(h).all():
        raise ValueError(
            f"Gram matrix of N^(-lambda) at lambda = {float(lam)!r} has non-finite entries "
            f"on {dom.spec_string}; it has no eigenvalues to report"
        )
    min_eig = float(np.linalg.eigvalsh(h)[0])
    return GramReport(
        tuple(np.asarray(p, dtype=np.complex128) for p in points),
        float(lam),
        min_eig,
        bool(min_eig >= _witness_threshold(h)),
        branch_ok,
    )


def gram_report(dom: DomainModel, lam: float, points: _Points) -> GramReport:
    """Min eigenvalue and verdict of one configuration; a ValueError if the
    Gram matrix has non-finite entries (N^(-lambda) overflowed)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h, branch_ok = gram_matrix(dom, lam, points, require_branch=False)
    return _report(dom, lam, points, h, branch_ok)


def _drop_thresholds(h: np.ndarray) -> np.ndarray:
    """_witness_threshold of h without row and column i, for each i.  Dropping
    i lowers the largest |entry| only when i is on every entry that attains
    it, which at most two indices are."""
    thresholds = np.full(len(h), _witness_threshold(h))
    size = np.abs(h)
    at = np.argwhere(size == size.max())
    for i in set(at[0]):
        if (at == i).any(axis=1).all():
            rest = np.delete(np.arange(len(h)), i)
            thresholds[i] = _witness_threshold(h[np.ix_(rest, rest)])
    return thresholds


def _minimize_witness(h: np.ndarray) -> np.ndarray:
    """Indices of the points kept when points are greedily dropped from the
    witness whose Gram matrix is h while the rest stay a witness: the first
    point in order whose drop keeps one is dropped, until none does.

    Each trial reads its principal submatrix of h, whose entries are exactly
    those a fresh evaluation would give; the search keeps only branch-valid
    configurations, and every subset of one is branch-valid too.  One eigh
    per drop decides every trial: for the Gram matrix H of the current
    points, a trial's threshold t and M = H - tI, Haynsworth's inertia
    additivity gives M without row and column i one negative eigenvalue
    fewer than M exactly when (M^-1)_ii < 0.  So the trial stays a witness
    iff M has two negative eigenvalues, or one and (M^-1)_ii =
    sum_j |V_ij|^2 / (w_j - t) > 0, for the eigenpairs (w_j, V_:j) of H.
    """
    keep = np.arange(len(h))
    while len(keep) > 2:
        sub = h[np.ix_(keep, keep)]
        values, vectors = np.linalg.eigh(sub)
        thresholds = _drop_thresholds(sub)
        inverse_diagonal = (np.abs(vectors) ** 2 / (values - thresholds[:, None])).sum(axis=1)
        stays = (values[1] < thresholds) | ((values[0] < thresholds) & (inverse_diagonal > 0.0))
        if not stays.any():
            break
        keep = np.delete(keep, np.argmax(stays))
    return keep


def _design(dom: DomainModel, k: int, budget: int) -> np.ndarray | None:
    """The unscaled orbit design for (1^k) as a (points, d) array (see the
    module docstring), or None when the domain has no design at k or the
    design has more than budget points.  Designs only grow with k."""
    if dom.kind == "IV" and k == 2 and 4 * dom.d <= budget:
        return (_FOURTH_ROOTS[:, None, None] * np.eye(dom.d)).reshape(-1, dom.d)
    if dom.kind == "I" and 2**k * math.factorial(k) <= budget:
        perms = np.array(list(itertools.permutations(range(k))))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
        z = np.zeros((len(perms), len(signs)) + dom.params, dtype=np.complex128)
        which = np.arange(len(perms))[:, None, None], np.arange(len(signs))[:, None]
        z[which + (perms[:, None], np.arange(k))] = signs  # column c's sign in row perm[c]
        return z.reshape(-1, dom.d)
    if dom.kind == "III":
        n = dom.params[0]
        rows, cols = upper_triangle(n)
        scale = np.ones((4**k, n), dtype=np.complex128)
        scale[:, :k] = _FOURTH_ROOTS[list(itertools.product(range(4), repeat=k))]
        distinct: dict[bytes, np.ndarray] = {}
        for perm in itertools.permutations(range(k)):
            z = np.zeros((n, n))
            z[perm, range(k)] += 0.5
            z[range(k), perm] += 0.5
            # + 0.0 turns -0.0 into 0.0, so equal points have equal bytes
            for point in scale[:, rows] * z[rows, cols] * scale[:, cols] + 0.0:
                distinct.setdefault(point.tobytes(), point)
            if len(distinct) > budget:
                return None
        return np.array(list(distinct.values()))
    return None


def search_violation(
    dom: DomainModel,
    lam: float,
    n_points: int = 6,
    budget: int = 2000,
    seed: int = 0,
) -> SearchResult:
    """Deterministic design search for a non-PSD Gram configuration.

    For k = 2..r, the design for (1^k) (see the module docstring) is
    evaluated at the scales of _SCALES, largest first, one Gram matrix
    each; the first that gives a witness wins, shrunk by _minimize_witness
    and reported from the same matrix.  budget is the largest design, in
    points, that is tried: the first design over it ends the search, since
    the later ones are larger still.  n_points and seed do nothing; they
    stay for callers that pass budget positionally, and seed is echoed in
    the result.  Absence of a witness is a valid outcome.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    tried = evals = 0
    for k in range(2, dom.r + 1):
        design = _design(dom, k, budget)
        if design is None:
            break
        tried += 1
        # One scale per evaluation: all five at once would need 2.2 GB on III:5 (608 points).
        for t in _SCALES:
            evals += 1
            points = t * design
            # Gram entries that overflow make a configuration invalid, not a warning.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                h, branch_ok = gram_matrix(dom, lam, points, require_branch=False)
            threshold = _witness_threshold(h)
            if branch_ok and np.isfinite(threshold) and np.linalg.eigvalsh(h)[0] < threshold:
                keep = _minimize_witness(h)
                report = _report(dom, lam, points[keep], h[np.ix_(keep, keep)], branch_ok)
                return SearchResult(True, report, seed, tried, evals)
    return SearchResult(False, None, seed, tried, evals)


# --- witness serialization ----------------------------------------------------


def witness_payload(dom: DomainModel, result: SearchResult) -> dict:
    """JSON-ready dict for an archived witness configuration."""
    if not result.found or result.report is None:
        raise ValueError("no witness to serialize")
    rep = result.report
    return {
        "domain": dom.spec_string,
        "lambda": rep.lam,
        "points": [
            [[float(c.real), float(c.imag)] for c in np.asarray(p).reshape(-1)]
            for p in rep.points
        ],
        "min_eig": rep.min_eigenvalue,
        "seed": result.seed,
    }


def replay_witness(payload: dict) -> tuple[DomainModel, GramReport, float]:
    """Recompute a stored witness; returns (domain, fresh report, |stored - fresh|).
    A non-finite min_eig, a seed other than an integer or absent, and empty
    or ragged points are ValueErrors naming the field."""
    dom = parse_domain(payload["domain"])
    lam = float(payload["lambda"])
    stored = float(payload["min_eig"])
    if not math.isfinite(stored):
        raise ValueError(f"witness field 'min_eig' is {stored!r}, not a finite number")
    if type(payload.get("seed", 0)) is not int:  # nor a bool
        raise ValueError(f"witness field 'seed' is {payload['seed']!r}, not an integer")
    points = [
        np.array([complex(re, im) for re, im in point], dtype=np.complex128)
        for point in payload["points"]
    ]
    if not points:
        raise ValueError("witness field 'points' is empty")
    lengths = sorted({len(p) for p in points})
    if len(lengths) > 1:
        raise ValueError(f"witness field 'points' holds points of unequal lengths {lengths}")
    report = gram_report(dom, lam, points)
    return dom, report, abs(report.min_eigenvalue - stored)
