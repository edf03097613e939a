"""Truncated positivity analysis for scaled Bergman kernels.

For a catalog domain with generic norm N and a real exponent lambda, the
kernel N^(-lambda) - 1 expands as sum b_{jk} z^{m_j} zbar^{m_k}.  Positive
semidefiniteness of the (infinite) coefficient matrix decides whether the
scaled metric embeds isometrically into projective space; this module builds
the truncated matrix, checks its structural properties (vanishing pure terms,
graded block form), renders a per-block PSD verdict, and extracts the
truncated immersion components when the verdict is positive.

The expansion has two paths, chosen by the caller's shape.  One lambda
(bergman_diastasis_series, and through it calabi_matrix, the Cartan-Hartogs
assembly and the Gram guidance) runs the Euler-operator recurrence on N's
terms and caches nothing.  A grid of lambdas (scan_lambdas) builds the
powers of Q = 1 - N once per (domain, cutoff), caches them, and takes one
linear combination per lambda.

The matrix keeps the series' sorted COO entries on its graded blocks, never
a dense array.  The kernel is invariant under the maximal torus of K
(z -> D1 z D2 on type I), so each block is a direct sum of small weight
spaces: permuted, the matrix is block diagonal, with blocks given by the
connected components of its nonzero pattern, none of which crosses degrees.
One spectral pass labels those components once over the whole matrix and
solves each component size as one stacked eigenproblem for all degrees;
each degree's verdict is read off its own components.  The spectrum is that
of the dense blocks, and a degree's witness is its minimising component's
eigenvector, zero-padded to the block.

Verdicts carry an asymmetric certainty tag: a negative block is a rigorous
refutation (a concrete principal submatrix fails), while an all-PSD result at
finite cutoff is only "consistent-to-cutoff".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from . import series as hs
from .multiindex import basis
from .series import HermitianSeries
from .domains import DomainModel, norm_series, one_minus_norm

DEFAULT_TOL_ABS = 1e-10
DEFAULT_TOL_REL = 1e-9

# Pure terms a_{j0}, a_{0j} and off-grade entries must vanish to this level.
NORMALIZATION_TOL = 1e-13
GRADING_REL_TOL = 1e-13


def check_tolerance(value: float) -> float:
    """The tolerance itself if it is a finite number >= 0, else a ValueError:
    a NaN tolerance would pass every eigenvalue as nonnegative."""
    if not (isfinite(value) and value >= 0):
        raise ValueError(f"tolerance {value!r} is not a finite number >= 0")
    return value


class GradingError(Exception):
    """Off-grade coefficients exceeded tolerance; input is not circular."""


# Powers of Q = 1 - N, reused by scan_lambdas across the scales of a domain.
_POWER_CACHE: dict[tuple[str, int], list[HermitianSeries]] = {}


def _norm_powers(dom: DomainModel, cutoff: int) -> list[HermitianSeries]:
    key = (dom.spec_string, cutoff)
    powers = _POWER_CACHE.get(key)
    if powers is None:
        powers = hs.power_sequence(one_minus_norm(dom, cutoff))
        _POWER_CACHE[key] = powers
    return powers


def bergman_diastasis_series(dom: DomainModel, lam: float, cutoff: int) -> HermitianSeries:
    """Truncated expansion of N(z, zbar)^(-lambda) - 1, by the Euler-operator
    recurrence on N's terms (series.inverse_norm_power)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return hs.inverse_norm_power(norm_series(dom, cutoff), lam)


def normalization_check(s: HermitianSeries, tol: float = NORMALIZATION_TOL) -> bool:
    """True iff every pure term (one side the zero index, not both) vanishes."""
    pure = (s.rows == 0) & (s.cols != 0)  # canonical entries have j <= k
    return not (np.abs(s.values[pure]) > tol).any()


@dataclass(frozen=True, eq=False)
class CalabiMatrix:
    """The graded coefficient matrix: its on-grade entries of positive degree
    as canonical COO (rows <= cols, at basis positions), sorted by (row, col)
    like the series they come from; the mirrors are implied."""

    domain_spec: str
    lam: float | None
    n_vars: int
    cutoff: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    off_grade_max: float
    max_abs_coeff: float


def graded_blocks(
    s: HermitianSeries,
    domain_spec: str = "",
    lam: float | None = None,
) -> CalabiMatrix:
    """The coefficient matrix restricted to its graded blocks.

    Off-grade entries (unequal degrees on the two sides) are recorded in
    off_grade_max and dropped; they must sit at rounding level relative to
    the largest coefficient, otherwise the input does not describe a
    circular-domain kernel and a GradingError is raised.
    """
    if not normalization_check(s):
        raise ValueError("series has non-vanishing pure terms")
    degrees = s.basis.degrees
    on_grade = degrees[s.rows] == degrees[s.cols]
    max_abs = s.max_abs()
    off_grade = float(np.abs(s.values[~on_grade]).max(initial=0.0))
    if off_grade > GRADING_REL_TOL * max(max_abs, 1e-300):
        raise GradingError(
            f"off-grade coefficient {off_grade:.3e} exceeds "
            f"{GRADING_REL_TOL:.0e} x max |b| = {GRADING_REL_TOL * max_abs:.3e}"
        )
    keep = on_grade & (s.rows != 0)  # row 0 on grade is the constant term
    rows, cols, values = s.rows[keep], s.cols[keep], s.values[keep]
    return CalabiMatrix(
        domain_spec, lam, s.n_vars, s.cutoff, rows, cols, values, off_grade, max_abs
    )


def calabi_matrix(dom: DomainModel, lam: float, cutoff: int) -> CalabiMatrix:
    """bergman_diastasis_series + graded_blocks with metadata attached."""
    s = bergman_diastasis_series(dom, lam, cutoff)
    return graded_blocks(s, domain_spec=dom.spec_string, lam=lam)


@dataclass(frozen=True, eq=False)
class BlockVerdict:
    degree: int
    dim: int
    min_eigenvalue: float
    rank: int           # eigenvalues above the block tolerance
    tol: float
    witness: np.ndarray | None  # eigenvector of the minimum eigenvalue if negative
    components: int  # connected components of the block's nonzero pattern
    largest_component: int


@dataclass(frozen=True, eq=False)
class Verdict:
    psd: bool
    per_block: tuple[BlockVerdict, ...]
    tol_abs: float
    tol_rel: float
    cutoff: int
    certainty: str  # "refuted" | "consistent-to-cutoff"

    @property
    def min_eigenvalue(self) -> float:
        return min((bv.min_eigenvalue for bv in self.per_block), default=0.0)


def _components(m: CalabiMatrix, n: int) -> list[np.ndarray]:
    """Connected components of the nonzero pattern on positions 1..n-1,
    grouped by size: one (count, size) array of positions per size, sizes
    ascending, each component's positions ascending and the components in
    order of their least position."""
    rows = np.concatenate((m.rows, m.cols))
    cols = np.concatenate((m.cols, m.rows))
    label = np.arange(n)
    # Label propagation with pointer jumping; label[i] <= i stays a node of
    # i's component, and at the fixpoint it is constant on each component.
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label[1:], kind="stable") + 1
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


def _spectral_pass(
    m: CalabiMatrix, tol_abs: float, tol_rel: float
) -> tuple[tuple[BlockVerdict, ...], list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-degree verdicts, and the spectrum as (positions, values, vectors,
    degree bounds) per component size, from one stacked eigensolve per size.

    A component never crosses degrees, as off-grade entries are dropped; the
    components of a size are in position order, so each degree's are one run,
    rows bounds[k]:bounds[k + 1] of the stack.
    """
    check_tolerance(tol_abs)
    check_tolerance(tol_rel)
    b = basis(m.n_vars, m.cutoff)
    degrees = b.degrees
    # Rows are sorted and the order is graded, so each degree's entries are one run.
    runs = np.searchsorted(m.rows, np.searchsorted(degrees, np.arange(m.cutoff + 2)))
    scale = [float(np.abs(m.values[lo:hi]).max(initial=0.0)) for lo, hi in zip(runs, runs[1:])]
    for degree in range(1, m.cutoff + 1):
        if not isfinite(scale[degree]):
            raise RuntimeError(
                f"degree-{degree} block has non-finite coefficients (max |b| = {scale[degree]})"
            )
    # Per position: the size of its component (0 until its size comes up)
    # and its row in the stack of that size, flattened to (count * size, size).
    width = np.zeros(len(b), dtype=np.int64)
    place = np.empty(len(b), dtype=np.int64)
    parts = []
    for idx in _components(m, len(b)):
        size = idx.shape[1]
        width[idx], place[idx.ravel()] = size, np.arange(idx.size)
        sel = width[m.rows] == size
        j, k = place[m.rows[sel]], place[m.cols[sel]]
        stacked = np.zeros((idx.size, size))
        stacked[j, k % size] = stacked[k, j % size] = m.values[sel]
        try:
            vals, vecs = np.linalg.eigh(stacked.reshape(idx.shape + (size,)))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed on the {size}-wide components") from exc
        bounds = np.searchsorted(degrees[idx[:, 0]], np.arange(m.cutoff + 2))
        parts.append((idx, vals, vecs, bounds))
    verdicts = []
    for degree in range(1, m.cutoff + 1):
        sl = b.degree_slice(degree)
        tol = max(tol_abs, tol_rel * scale[degree])
        worst = None  # (min eigenvalue, positions, eigenvector) of the first minimising component
        rank = count = largest = 0
        for idx, vals, vecs, bounds in parts:  # sizes ascending
            lo, hi = bounds[degree], bounds[degree + 1]
            if lo == hi:
                continue
            c = lo + int(np.argmin(vals[lo:hi, 0]))
            if worst is None or vals[c, 0] < worst[0]:
                worst = (float(vals[c, 0]), idx[c], vecs[c, :, 0])
            rank += int(np.count_nonzero(vals[lo:hi] > tol))
            count += int(hi - lo)
            largest = idx.shape[1]
        min_eig, positions, vector = worst
        witness = None
        if min_eig < -tol:
            witness = np.zeros(sl.stop - sl.start)
            witness[positions - sl.start] = vector
        verdicts.append(
            BlockVerdict(degree, sl.stop - sl.start, min_eig, rank, tol, witness, count, largest)
        )
    return tuple(verdicts), parts


def psd_verdict(
    m: CalabiMatrix,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Verdict:
    """Per-block minimum eigenvalues and the aggregate PSD decision."""
    per_block, _ = _spectral_pass(m, tol_abs, tol_rel)
    psd = not any(bv.min_eigenvalue < -bv.tol for bv in per_block)
    certainty = "consistent-to-cutoff" if psd else "refuted"
    return Verdict(psd, per_block, tol_abs, tol_rel, m.cutoff, certainty)


@dataclass(frozen=True, eq=False)
class ImmersionComponent:
    """Homogeneous polynomial f(z) = sum coeffs[m] z^m of the given degree."""

    degree: int
    coeffs: dict[tuple[int, ...], float]


def extract_immersion(
    m: CalabiMatrix,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ImmersionComponent]:
    """Components f_j with sum_j f_j(z) conj(f_j(w)) = 1 + series, to cutoff.

    Each PSD block factors as B = L L^T through the eigen-decompositions of
    its components, taken per degree in decreasing eigenvalue order;
    eigenvalues at or below the block tolerance are clipped to zero, so the
    component count per degree equals the block's reported rank.
    """
    per_block, parts = _spectral_pass(m, tol_abs, tol_rel)
    if any(bv.min_eigenvalue < -bv.tol for bv in per_block):
        raise ValueError("immersion extraction requires a PSD coefficient matrix")
    b = basis(m.n_vars, m.cutoff)
    components = [ImmersionComponent(0, {(0,) * m.n_vars: 1.0})]
    for bv in per_block:
        kept = [
            (float(vals[c, e]), idx[c], vecs[c, :, e])
            for idx, vals, vecs, bounds in parts
            for c, e in zip(*np.nonzero(vals > bv.tol))
            if bounds[bv.degree] <= c < bounds[bv.degree + 1]
        ]
        for val, positions, vec in sorted(kept, key=lambda t: -t[0]):
            w = np.sqrt(val) * vec
            components.append(
                ImmersionComponent(
                    bv.degree,
                    {b[i].exponents: float(c) for i, c in zip(positions, w) if c != 0.0},
                )
            )
    return components


def immersion_reconstruction_error(
    components: Sequence[ImmersionComponent], s: HermitianSeries
) -> float:
    """Max |sum_j f_j(z) conj(f_j(w)) - (1 + series)| over retained coefficients."""
    b = s.basis
    rows, cols, vals = [], [], []
    for comp in components:
        pos = b.rank(np.array(list(comp.coeffs), dtype=np.int64).reshape(-1, s.n_vars))
        c = np.fromiter(comp.coeffs.values(), dtype=np.float64, count=len(pos))
        j, k = np.meshgrid(pos, pos, indexing="ij")
        upper = j <= k
        rows.append(j[upper])
        cols.append(k[upper])
        vals.append(np.outer(c, c)[upper])
    accum = hs.from_entries(s.n_vars, s.cutoff, *(np.concatenate(a) for a in (rows, cols, vals)))
    return hs.max_abs_diff(accum, hs.add(s, hs.from_entries(s.n_vars, s.cutoff, [0], [0], [1.0])))


@dataclass(frozen=True, eq=False)
class ScanRow:
    lam: float
    degree: int
    block_dim: int
    min_eig: float
    psd: bool


def scan_lambdas(
    dom: DomainModel,
    lams: Iterable[float],
    cutoff: int,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ScanRow]:
    """Per-(lambda, degree) block eigen-data; one row per block, in grid order.

    A grid reads the powers of Q = 1 - N, built once per (domain, cutoff) and
    cached, so each lambda is one linear combination sum_k C(lambda+k-1, k) Q^k
    followed by the component eigensolves; a single lambda is cheaper by the
    recurrence of bergman_diastasis_series.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    powers = _norm_powers(dom, cutoff)
    rows = []
    for lam in lams:
        lam = float(lam)
        weights = [hs.generalized_binomial(lam, k) for k in range(1, len(powers) + 1)]
        s = hs.linear_combination(powers, weights) if powers else hs.zero(dom.d, cutoff)
        m = graded_blocks(s, domain_spec=dom.spec_string, lam=lam)
        verdict = psd_verdict(m, tol_abs, tol_rel)
        rows.extend(
            ScanRow(lam, bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
            for bv in verdict.per_block
        )
    return rows
