"""Point-sampling positivity tests for the kernels N(x, y)^(-lambda).

A kernel is positive definite iff every finite Gram matrix of evaluations is
positive semidefinite, so a single configuration with a negative eigenvalue
is a certificate that the scaled metric is not projectively induced.  This
module builds those Gram matrices on sampled interior points and runs a
random-restart local search for violating configurations.

Powers N^(-lambda) use the principal logarithm; that is only single-valued
while N stays in the right half-plane, so every evaluation tracks a
branch_ok flag instead of failing silently.

Random configurations are almost never witnesses: a negative eigenvalue
needs the point moments concentrated on a negative eigendirection of the
degree-2 coefficient block, which a generic cloud misses.  The search
therefore derives candidate configurations from that block.  Each negative
eigenvector decomposes into coordinate atoms; a diagonal atom (i, i) maps
to an antipodal pair {x, -x} with x on coordinate i, and an off-diagonal
atom (i, j) maps to a cube-root triple {w^k u + conj(w)^k v : k = 0, 1, 2}
with u on coordinate i and v on coordinate j.  Both constructions cancel
the constant-term and degree-1 moments while keeping the targeted degree-2
moment, so the configuration starts inside or near the negative cone and a
short local descent does the rest.  Pure random restarts stay in the mix
so the search remains honest on domains where no guidance is available.

Each evaluation is batched: a configuration is one (k, d) array, its norm
matrix comes from a single stacked evaluation (domains.norm_matrix) and its
membership from a single stacked gauge.  Restarts run one after another in
the calling thread; the objective is a few small numpy calls, so a thread
pool would only add contention for the interpreter lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import DomainModel, contains, norm_matrix, parse_domain, sample, upper_triangle

DEFAULT_WITNESS_TOL = 1e-6
DEFAULT_RADIUS_CAP = 0.7

_DESCENT_STEPS = 50
_SIGMA_INITIAL = 0.04
_SIGMA_GROW = 1.3
_SIGMA_SHRINK = 0.93
_SIGMA_MAX = 0.15
_SIGMA_MIN = 0.002
_ATOM_CUT = 1e-6
_BLOCK_NEG_TOL = 1e-10


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
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
    require_branch: bool = True,
) -> tuple[np.ndarray, bool]:
    """Hermitian matrix of N(x_a, x_b)^(-lambda) values and the branch flag.

    points is a (k, d) array or a sequence of k points.  Entries come from a
    single principal-log evaluation of the upper triangle of the stacked norm
    matrix, mirrored by conjugation, so Hermitian symmetry is exact and the
    diagonal is real.  With require_branch a branch violation raises
    BranchError naming the first offending pair in row-major order.
    """
    pts = np.asarray(points, dtype=np.complex128)
    rows, cols = upper_triangle(len(pts))
    nv = norm_matrix(dom, pts, pts)[rows, cols]
    bad = nv.real <= 0.0
    branch_ok = not bad.any()
    if require_branch and not branch_ok:
        i = int(np.argmax(bad))
        raise BranchError(
            f"Re N <= 0 at point pair ({rows[i]}, {cols[i]}): N = {complex(nv[i])}"
        )
    values = np.exp(-lam * np.log(nv))
    h = np.empty((len(pts), len(pts)), dtype=np.complex128)
    h[cols, rows] = values.conj()
    h[rows, cols] = values
    # mathematically real; drop evaluation noise in the imaginary part
    np.fill_diagonal(h, values[rows == cols].real)
    return h, branch_ok


def min_gram_eigenvalue(
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
    require_branch: bool = True,
) -> tuple[float, bool]:
    h, branch_ok = gram_matrix(dom, lam, points, require_branch)
    return float(np.linalg.eigvalsh(h)[0]), branch_ok


def _witness_threshold(h: np.ndarray, witness_tol: float) -> float:
    """A configuration is a witness when its min eigenvalue is below
    -witness_tol * max(1, max |H_ab|): the eigensolver's rounding grows with
    the entries, which N^(-lambda) can push far past 1.  Non-finite entries
    give a non-finite threshold (max(nan, 1.0) is nan)."""
    return -witness_tol * max(float(np.abs(h).max()), 1.0)


def gram_report(
    dom: DomainModel,
    lam: float,
    points: Sequence[np.ndarray] | np.ndarray,
    witness_tol: float = DEFAULT_WITNESS_TOL,
) -> GramReport:
    h, branch_ok = gram_matrix(dom, lam, points, require_branch=False)
    min_eig = float(np.linalg.eigvalsh(h)[0])
    return GramReport(
        tuple(np.asarray(p, dtype=np.complex128) for p in points),
        float(lam),
        min_eig,
        min_eig >= _witness_threshold(h, witness_tol),
        branch_ok,
    )


def _quadratic_atoms(dom: DomainModel, lam: float) -> list[tuple[int, int, float]] | None:
    """Coordinate atoms of the most negative degree-2 eigendirection.

    Returns [(i, j, coef), ...] sorted by |coef| descending, where the
    eigenvector reads sum coef * z_i z_j, or None when the degree-2 block is
    positive semidefinite (no guidance to offer).
    """
    from .calabi import calabi_matrix
    from .multiindex import basis

    try:
        cm = calabi_matrix(dom, lam, 2)
    except Exception:
        return None
    block = next((blk for blk in cm.blocks if blk.degree == 2), None)
    if block is None:
        return None
    vals, vecs = np.linalg.eigh(block.matrix)
    scale = max(1.0, float(np.abs(block.matrix).max()))
    if vals[0] >= -_BLOCK_NEG_TOL * scale:
        return None
    direction = vecs[:, 0]
    bas = basis(dom.d, 2)
    sl = bas.degree_slice(2)
    atoms: list[tuple[int, int, float]] = []
    for pos in range(sl.start, sl.stop):
        coef = float(direction[pos - sl.start])
        if abs(coef) < _ATOM_CUT:
            continue
        nonzero = [i for i, e in enumerate(bas[pos].exponents) if e]
        atoms.append((nonzero[0], nonzero[-1], coef))
    atoms.sort(key=lambda a: -abs(a[2]))
    return atoms or None


_OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))  # primitive cube root of unity


def _structured_points(
    dom: DomainModel,
    atoms: Sequence[tuple[int, int, float]],
    n_points: int,
    rng: np.random.Generator,
    scale: float,
    signs: Sequence[float],
) -> np.ndarray:
    """Moment-cancelling (n_points, d) configuration aimed at the negative eigendirection.

    Atoms are packed greedily: antipodal pairs for diagonal atoms, cube-root
    triples for off-diagonal ones.  Leftover slots get one origin point and
    small random samples; the eigensolver can assign them zero weight.
    """
    points: list[np.ndarray] = []
    for (i, j, _), sign in zip(atoms, signs):
        need = 2 if i == j else 3
        if len(points) + need > n_points:
            break
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if i == j:
            x = np.zeros(dom.d, dtype=np.complex128)
            x[i] = scale * phase
            points.extend([x, -x])
        else:
            u = np.zeros(dom.d, dtype=np.complex128)
            v = np.zeros(dom.d, dtype=np.complex128)
            u[i] = scale * phase
            v[j] = scale * np.conj(phase) * sign
            for k in range(3):
                points.append(_OMEGA**k * u + np.conj(_OMEGA) ** k * v)
    if len(points) < n_points:
        points.append(np.zeros(dom.d, dtype=np.complex128))
    while len(points) < n_points:
        points.append(sample(dom, rng, 0.25 * scale))
    return np.array(points)


def _restart(
    dom: DomainModel,
    lam: float,
    n_points: int,
    seed_seq: np.random.SeedSequence,
    eval_budget: int,
    witness_tol: float,
    radius_cap: float,
    atoms: Sequence[tuple[int, int, float]] | None,
) -> tuple[np.ndarray | None, float, int]:
    """One seeded restart: propose, then descend on the minimum eigenvalue.

    Configurations are (n_points, d) arrays.  Returns (winning points or
    None, best min eigenvalue, evals used).
    """
    rng = np.random.default_rng(seed_seq)
    evals = 0

    def objective(pts: np.ndarray) -> tuple[float, float] | None:
        nonlocal evals
        if evals >= eval_budget:
            return None
        evals += 1
        h, branch_ok = gram_matrix(dom, lam, pts, require_branch=False)
        threshold = _witness_threshold(h, witness_tol)
        # A branch violation or an overflow makes the configuration invalid.
        if not branch_ok or not math.isfinite(threshold):
            return None
        return float(np.linalg.eigvalsh(h)[0]), threshold

    points: np.ndarray | None = None
    best: float | None = None
    if atoms is not None:
        scale = radius_cap * rng.uniform(0.25, 0.72)
        plus = tuple(1.0 for _ in atoms)
        flipped = tuple(float(rng.choice((-1.0, 1.0))) for _ in atoms)
        for signs in (plus, flipped):
            pts = _structured_points(dom, atoms, n_points, rng, scale, signs)
            if not contains(dom, pts).all():
                continue
            spectrum = objective(pts)
            if spectrum is not None and (best is None or spectrum[0] < best):
                points, (best, threshold) = pts, spectrum
    if points is None or best is None:
        points = np.array([sample(dom, rng, radius_cap) for _ in range(n_points)])
        spectrum = objective(points)
        if spectrum is None:
            return None, 0.0, evals
        best, threshold = spectrum
    sigma = _SIGMA_INITIAL
    for _ in range(4 * _DESCENT_STEPS):
        if evals >= eval_budget or best < threshold:
            break
        if rng.random() < 0.7:
            candidate = points + sigma * (
                rng.standard_normal(points.shape) + 1j * rng.standard_normal(points.shape)
            )
        else:
            candidate = points.copy()
            pi = int(rng.integers(n_points))
            candidate[pi] += sigma * (
                rng.standard_normal(dom.d) + 1j * rng.standard_normal(dom.d)
            )
        if not contains(dom, candidate).all():
            continue
        spectrum = objective(candidate)
        if spectrum is None:
            break
        if spectrum[0] < best:
            points, (best, threshold) = candidate, spectrum
            sigma = min(sigma * _SIGMA_GROW, _SIGMA_MAX)
        else:
            sigma = max(sigma * _SIGMA_SHRINK, _SIGMA_MIN)
    if best < threshold:
        return points, best, evals
    return None, best, evals


def _minimize_witness(
    dom: DomainModel,
    lam: float,
    points: np.ndarray,
    witness_tol: float,
) -> np.ndarray:
    """Greedily drop points while the configuration stays a witness.

    The Gram matrix is evaluated once; each trial drop reads its principal
    submatrix, whose entries are exactly those a fresh evaluation would give.
    The search keeps only branch-valid configurations, and every subset of
    one is branch-valid too.
    """
    h, _ = gram_matrix(dom, lam, points)
    keep = list(range(len(points)))
    changed = True
    while changed and len(keep) > 2:
        changed = False
        for i in range(len(keep)):
            trial = keep[:i] + keep[i + 1 :]
            sub = h[np.ix_(trial, trial)]
            if np.linalg.eigvalsh(sub)[0] < _witness_threshold(sub, witness_tol):
                keep = trial
                changed = True
                break
    return points[keep]


def search_violation(
    dom: DomainModel,
    lam: float,
    n_points: int = 6,
    budget: int = 2000,
    seed: int = 0,
    witness_tol: float = DEFAULT_WITNESS_TOL,
    radius_cap: float = DEFAULT_RADIUS_CAP,
) -> SearchResult:
    """Guided random-restart search for a non-PSD Gram configuration.

    budget counts Gram evaluations across all restarts; each restart spends
    at most 2 + 50 of them.  Two out of three restarts start from a
    configuration aimed at a negative degree-2 eigendirection when one
    exists; the rest start from random samples.  Restarts run in order, each
    from its own spawned seed, and the search stops at the first restart
    that finds a witness, so a (seed, budget) pair always gives the same
    result.  Absence of a witness is a valid outcome.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    per_restart = 2 + _DESCENT_STEPS
    n_restarts = max(1, budget // per_restart)
    seeds = np.random.SeedSequence(seed).spawn(n_restarts)
    atoms = _quadratic_atoms(dom, lam)

    evals_total = 0
    winner: np.ndarray | None = None
    restarts_used = 0
    for i in range(n_restarts):
        guided = atoms if i % 3 != 2 else None
        # Gram entries that overflow make a configuration invalid, not a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            winner, _, evals = _restart(
                dom, lam, n_points, seeds[i], per_restart, witness_tol, radius_cap, guided
            )
        evals_total += evals
        restarts_used = i + 1
        if winner is not None or evals_total >= budget:
            break
    if winner is None:
        return SearchResult(False, None, seed, restarts_used, evals_total)
    winner = _minimize_witness(dom, lam, winner, witness_tol)
    report = gram_report(dom, lam, winner, witness_tol)
    return SearchResult(True, report, seed, restarts_used, evals_total)


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
    """Recompute a stored witness; returns (domain, fresh report, |stored - fresh|)."""
    dom = parse_domain(payload["domain"])
    lam = float(payload["lambda"])
    points = [
        np.array([complex(re, im) for re, im in point], dtype=np.complex128)
        for point in payload["points"]
    ]
    report = gram_report(dom, lam, points)
    drift = abs(report.min_eigenvalue - float(payload["min_eig"]))
    return dom, report, drift
