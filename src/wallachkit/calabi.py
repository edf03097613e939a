"""Truncated positivity analysis for scaled Bergman kernels.

For a catalog domain with generic norm N and a real exponent lambda, the
kernel N^(-lambda) - 1 expands as sum b_{jk} z^{m_j} zbar^{m_k}.  Positive
semidefiniteness of the (infinite) coefficient matrix decides whether the
scaled metric embeds isometrically into projective space; this module builds
the truncated matrix, checks its structural properties (vanishing pure terms,
graded block form), renders a per-block PSD verdict, and extracts the
truncated immersion components when the verdict is positive.

The expansion is the Euler-operator recurrence on N's terms.  One lambda
(bergman_diastasis_series, and through it calabi_matrix, the Cartan-Hartogs
assembly and the Gram guidance) runs it directly and caches nothing.  A grid
of lambdas (scan_lambdas) compiles it once per (domain, cutoff), with lambda
left open, together with the spectral layout of its pattern, and replays it
per lambda: the same numbers as the single verdicts, bit for bit.

The matrix keeps the series' sorted COO entries on its graded blocks, never
a dense array.  The kernel is invariant under the maximal torus of K
(z -> D1 z D2 on type I), so each block is a direct sum of small weight
spaces: permuted, the matrix is block diagonal, with blocks given by the
connected components of its nonzero pattern, none of which crosses degrees.
One spectral pass labels those components once over the whole matrix and
solves each component size as one stacked eigenvalue problem for all
degrees; each degree's verdict is read off its own components.  The
spectrum is that of the dense blocks.  The pass computes eigenvalues only;
a refuted degree's witness is an eigenvector of its minimising component
alone, zero-padded to the block, and extract_immersion alone asks for every
eigenvector.  The labels and the scatter into the stacks depend on the
pattern alone (a SpectralLayout), which a scan shares across its lambdas.

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
from .domains import DomainModel, norm_series

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


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of the canonical entries
    rows, cols on positions 1..n-1, grouped by size: one (count, size) array
    of positions per size, sizes ascending, each component's positions
    ascending and the components in order of their least position."""
    rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
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


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The value-free part of a spectral pass over a Calabi matrix's pattern.

    runs[d]:runs[d + 1] are degree d's entries.  Per component size, sizes
    ascending: the (count, size) positions of the components, the entries
    inside them, the flat indices of each entry and of its mirror in the
    (count, size, size) stack, and the degree bounds (the components of a
    size are in position order and never cross degrees, so each degree's
    are one run, rows bounds[d]:bounds[d + 1] of the stack).
    """

    n_vars: int
    cutoff: int
    runs: np.ndarray
    parts: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def _spectral_layout(
    n_vars: int, cutoff: int, rows: np.ndarray, cols: np.ndarray
) -> SpectralLayout:
    """The layout of the entries rows, cols of a CalabiMatrix (canonical,
    sorted, on grade and of positive degree)."""
    b = basis(n_vars, cutoff)
    degrees = b.degrees
    # Rows are sorted and the order is graded, so each degree's entries are one run.
    runs = np.searchsorted(rows, np.searchsorted(degrees, np.arange(cutoff + 2)))
    # Per position: the size of its component (0 until its size comes up)
    # and its row in the stack of that size, flattened to (count * size, size).
    width = np.zeros(len(b), dtype=np.int64)
    place = np.empty(len(b), dtype=np.int64)
    parts = []
    for idx in _components(rows, cols, len(b)):
        size = idx.shape[1]
        width[idx], place[idx.ravel()] = size, np.arange(idx.size)
        sel = np.flatnonzero(width[rows] == size)
        j, k = place[rows[sel]], place[cols[sel]]
        bounds = np.searchsorted(degrees[idx[:, 0]], np.arange(cutoff + 2))
        parts.append((idx, sel, j * size + k % size, k * size + j % size, bounds))
    return SpectralLayout(n_vars, cutoff, runs, tuple(parts))


def _eigen(stack: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a stack of symmetric matrices by eigh,
    or with vectors False (eigenvalues, the stack itself) by eigvalsh."""
    try:
        return np.linalg.eigh(stack) if vectors else (np.linalg.eigvalsh(stack), stack)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on the {stack.shape[-1]}-wide components") from exc


def _spectral_pass(
    layout: SpectralLayout, values: np.ndarray, tol_abs: float, tol_rel: float,
    vectors: bool = False,
) -> tuple[tuple[BlockVerdict, ...], list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-degree verdicts, and the spectrum as (positions, values, matrices,
    degree bounds) per component size, from one stacked eigensolve per size
    of the entries with the given values on the layout's pattern: eigvalsh,
    with the components as the matrices and one eigh of a refuted degree's
    minimising component for its witness, or with vectors eigh, with the
    eigenvectors as the matrices."""
    check_tolerance(tol_abs)
    check_tolerance(tol_rel)
    runs = layout.runs
    scale = [float(np.abs(values[lo:hi]).max(initial=0.0)) for lo, hi in zip(runs, runs[1:])]
    for degree in range(1, layout.cutoff + 1):
        if not isfinite(scale[degree]):
            raise RuntimeError(
                f"degree-{degree} block has non-finite coefficients (max |b| = {scale[degree]})"
            )
    parts = []
    for idx, sel, mine, mirror, bounds in layout.parts:
        size = idx.shape[1]
        stacked = np.zeros(idx.size * size)
        stacked[mine] = stacked[mirror] = values[sel]
        vals, mats = _eigen(stacked.reshape(idx.shape + (size,)), vectors)
        parts.append((idx, vals, mats, bounds))
    b = basis(layout.n_vars, layout.cutoff)
    verdicts = []
    for degree in range(1, layout.cutoff + 1):
        sl = b.degree_slice(degree)
        tol = max(tol_abs, tol_rel * scale[degree])
        worst = None  # (min eigenvalue, positions, matrix) of the first minimising component
        rank = count = largest = 0
        for idx, vals, mats, bounds in parts:  # sizes ascending
            lo, hi = bounds[degree], bounds[degree + 1]
            if lo == hi:
                continue
            c = lo + int(np.argmin(vals[lo:hi, 0]))
            if worst is None or vals[c, 0] < worst[0]:
                worst = (float(vals[c, 0]), idx[c], mats[c])
            rank += int(np.count_nonzero(vals[lo:hi] > tol))
            count += int(hi - lo)
            largest = idx.shape[1]
        min_eig, positions, mat = worst
        witness = None
        if min_eig < -tol:
            witness = np.zeros(sl.stop - sl.start)
            witness[positions - sl.start] = (mat if vectors else _eigen(mat, True)[1])[:, 0]
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
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols)
    per_block, _ = _spectral_pass(layout, m.values, tol_abs, tol_rel)
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
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols)
    per_block, parts = _spectral_pass(layout, m.values, tol_abs, tol_rel, vectors=True)
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


# Per (domain, cutoff): the recurrence with lambda left open, and the
# spectral layout of its pattern.
_SCAN_PLAN_CACHE: dict[tuple[str, int], tuple[hs.RecurrencePlan, SpectralLayout]] = {}


def _scan_plan(dom: DomainModel, cutoff: int) -> tuple[hs.RecurrencePlan, SpectralLayout]:
    key = (dom.spec_string, cutoff)
    if key not in _SCAN_PLAN_CACHE:
        plan = hs.compile_recurrence(norm_series(dom, cutoff))
        # The recurrence's entries are on grade and of positive degree, so
        # graded_blocks keeps every one of them.
        layout = _spectral_layout(dom.d, cutoff, plan.rows, plan.cols)
        _SCAN_PLAN_CACHE[key] = plan, layout
    return _SCAN_PLAN_CACHE[key]


def scan_lambdas(
    dom: DomainModel,
    lams: Iterable[float],
    cutoff: int,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list[ScanRow]:
    """Per-(lambda, degree) block eigen-data; one row per block, in grid order.

    The rows are those of psd_verdict(calabi_matrix(dom, lambda, cutoff)),
    bit for bit.  The recurrence's plan and the spectral layout of its
    pattern are built once per (domain, cutoff) and cached, so a scale costs
    one replay of the recurrence and the stacked eigensolves.  A scale at
    which the recurrence sums to an exact zero (lambda = 0, say) drops that
    entry, so it takes the single-verdict path, which labels its own pattern.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    plan, layout = _scan_plan(dom, cutoff)
    rows = []
    for lam in lams:
        lam = float(lam)
        values = plan.values(lam)
        if values is None:
            per_block = psd_verdict(calabi_matrix(dom, lam, cutoff), tol_abs, tol_rel).per_block
        else:
            per_block, _ = _spectral_pass(layout, values, tol_abs, tol_rel)
        rows.extend(
            ScanRow(lam, bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
            for bv in per_block
        )
    return rows
