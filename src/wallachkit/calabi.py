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
K also holds coordinate permutations (domains.symmetries) that commute with
the matrix, so components they map onto each other share a spectrum.  One
spectral pass labels the components once, groups them into these orbits and
solves one per orbit, each size as one stacked eigenvalue problem for all
degrees; each degree's verdict is read off its own components, weighted by
orbit size, and is that of the dense block.  It computes eigenvalues only;
a refuted degree's witness is an eigenvector of its minimising component
alone, zero-padded to the block.  extract_immersion (every eigenvector) and
graded_blocks of an arbitrary series solve every component.  The labels,
orbits and scatter depend on the pattern alone (a SpectralLayout), which a
scan shares across its lambdas.

Verdicts carry an asymmetric certainty tag: a negative block is a rigorous
refutation (a concrete principal submatrix fails), while an all-PSD result at
finite cutoff is only "consistent-to-cutoff".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from . import series as hs
from .multiindex import basis
from .series import HermitianSeries
from .domains import DomainModel, norm_series, symmetries

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
    symmetries: tuple[tuple[int, ...], ...] = ()  # domains.symmetries of the kernel's domain


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
    m = graded_blocks(s, domain_spec=dom.spec_string, lam=lam)
    return replace(m, symmetries=symmetries(dom))


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
    solved_components: int  # representatives of their orbits, the components eigensolved


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


def _labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Per position 0..n-1, the least position of its connected component in
    the graph with edges rows[e] -- cols[e]."""
    rows, cols = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    label = np.arange(n)
    # Label propagation with pointer jumping; label[i] <= i stays a node of
    # i's component, and at the fixpoint it is constant on each component.
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _components(label: np.ndarray, keep: np.ndarray) -> list[np.ndarray]:
    """The components given by label of the positions 1..n-1 where keep
    holds, grouped by size: one (count, size) array of positions per size,
    sizes ascending, each component's positions ascending and the components
    in order of their least position."""
    order = np.flatnonzero(keep[1:]) + 1
    order = order[np.argsort(label[order], kind="stable")]
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The value-free part of a spectral pass over a Calabi matrix's pattern.

    runs[d]:runs[d + 1] are degree d's entries.  Per size, sizes ascending:
    the (count, size) positions of the orbit representatives (components of
    least position) and the offset of their stack in one flat buffer, where
    entries sel go to flat indices mine, their mirrors to mirror.  Per
    representative, in stack order: degree, size, orbit size; per degree:
    its components and representatives.
    """

    n_vars: int
    cutoff: int
    runs: np.ndarray
    parts: tuple[tuple[np.ndarray, int], ...]
    sel: np.ndarray
    mine: np.ndarray
    mirror: np.ndarray
    degree: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    components: np.ndarray
    solved: np.ndarray


def _spectral_layout(
    n_vars: int, cutoff: int, rows: np.ndarray, cols: np.ndarray, generators: Sequence = ()
) -> SpectralLayout:
    """The layout of the entries rows, cols of a CalabiMatrix (canonical,
    sorted, on grade and of positive degree), its components grouped into
    orbits under the coordinate permutations in generators.  One that does
    not map every component onto a component is ignored."""
    b = basis(n_vars, cutoff)
    n, degrees = len(b), b.degrees
    # Rows are sorted and the order is graded, so each degree's entries are one run.
    runs = np.searchsorted(rows, np.searchsorted(degrees, np.arange(cutoff + 2)))
    label = _labels(rows, cols, n)
    maps = [b.rank(b.exponents[:, list(g)]) for g in generators]
    # m permutes the positions, so one that maps each component into one maps it onto one.
    maps = [m for m in maps if np.array_equal(label[m], label[m][label])]
    # Per component label, the least label its images reach: its orbit's.
    image = np.concatenate([label, *(label[m] for m in maps)])
    orbit = _labels(np.resize(label, image.size), image, n)
    # Per position: the size of its component (0 until its size comes up)
    # and its row in the stack of that size, flattened to (count * size, size).
    width = np.zeros(n, dtype=np.int64)
    place = np.empty(n, dtype=np.int64)
    parts, sel, mine, mirror, offset = [], [], [], [], 0
    for idx in _components(label, orbit[label] == label):
        size = idx.shape[1]
        width[idx], place[idx.ravel()] = size, np.arange(idx.size)
        sel.append(np.flatnonzero(width[rows] == size))
        j, k = place[rows[sel[-1]]], place[cols[sel[-1]]]
        mine.append(offset + j * size + k % size)
        mirror.append(offset + k * size + j % size)
        parts.append((idx, offset))
        offset += idx.size * size
    lead = np.concatenate([idx[:, 0] for idx, _ in parts])
    size = np.repeat([idx.shape[1] for idx, _ in parts], [len(idx) for idx, _ in parts])
    # An orbit's positions fill orbit-size components of the representative's size.
    weight = np.bincount(orbit[label[1:]], minlength=n)[lead] // size
    degree = degrees[lead]
    return SpectralLayout(
        n_vars, cutoff, runs, tuple(parts), *map(np.concatenate, (sel, mine, mirror)),
        degree, size, weight, np.bincount(degree, weight, cutoff + 1).astype(np.int64),
        np.bincount(degree, minlength=cutoff + 1),
    )


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
) -> tuple[tuple[BlockVerdict, ...], dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-degree verdicts, and the spectrum as {size: (positions, values,
    matrices)}, from one stacked eigensolve per size of the representatives
    with the given values on the layout's pattern: eigvalsh, with the
    components as the matrices and one eigh of a refuted degree's first
    minimising representative for its witness, or with vectors eigh, with
    the eigenvectors as the matrices.  Ranks count each orbit in full."""
    check_tolerance(tol_abs)
    check_tolerance(tol_rel)
    runs, cutoff, degree, size = layout.runs, layout.cutoff, layout.degree, layout.size
    scale, filled = np.zeros(cutoff + 1), runs[1:] > runs[:-1]
    scale[filled] = np.maximum.reduceat(np.abs(values), runs[:-1][filled])
    bad = int(np.argmin(np.isfinite(scale)))  # the first non-finite degree, if any
    if not isfinite(scale[bad]):
        raise RuntimeError(
            f"degree-{bad} block has non-finite coefficients (max |b| = {scale[bad]})"
        )
    tol = np.maximum(tol_abs, tol_rel * scale)
    buffer = np.zeros(int(size @ size))  # size x size entries per representative
    buffer[layout.mine] = buffer[layout.mirror] = values[layout.sel]
    spectra = {}
    for idx, offset in layout.parts:
        count, width = idx.shape
        stack = buffer[offset : offset + count * width * width].reshape(count, width, width)
        spectra[width] = (idx, *_eigen(stack, vectors))
    eigenvalues = np.concatenate([vals.ravel() for _, vals, _ in spectra.values()])
    first = np.cumsum(size) - size
    above = np.add.reduceat(eigenvalues > np.repeat(tol[degree], size), first)
    rank = np.bincount(degree, layout.weight * above, cutoff + 1)
    # Per degree, the first representative in stack order with the least minimum.
    lowest = eigenvalues[first]
    components, solved = layout.components, layout.solved
    pick = np.lexsort((lowest, degree))[np.cumsum(solved) - solved]
    largest = np.zeros(cutoff + 1, dtype=np.int64)
    np.maximum.at(largest, degree, size)
    b = basis(layout.n_vars, cutoff)
    verdicts = []
    for d in range(1, cutoff + 1):
        sl, c = b.degree_slice(d), pick[d]
        min_eig, witness = float(lowest[c]), None
        if min_eig < -tol[d]:
            # The representatives of one size are consecutive in stack order.
            idx, _, mats = spectra[size[c]]
            row = c - np.searchsorted(size, size[c])
            mat = mats[row] if vectors else _eigen(mats[row], True)[1]
            witness = np.zeros(sl.stop - sl.start)
            witness[idx[row] - sl.start] = mat[:, 0]
        verdicts.append(BlockVerdict(d, sl.stop - sl.start, min_eig, int(rank[d]), float(tol[d]),
                                     witness, int(components[d]), int(largest[d]), int(solved[d])))
    return tuple(verdicts), spectra


def psd_verdict(
    m: CalabiMatrix,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Verdict:
    """Per-block minimum eigenvalues and the aggregate PSD decision."""
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols, m.symmetries)
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
    # Every component's eigenvectors are needed, so the orbits stay trivial.
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols)
    per_block, parts = _spectral_pass(layout, m.values, tol_abs, tol_rel, vectors=True)
    if any(bv.min_eigenvalue < -bv.tol for bv in per_block):
        raise ValueError("immersion extraction requires a PSD coefficient matrix")
    b = basis(m.n_vars, m.cutoff)
    tol = np.array([0.0] + [bv.tol for bv in per_block])
    kept = []
    for idx, vals, vecs in parts.values():
        degree = b.degrees[idx[:, 0]]
        for c, e in zip(*np.nonzero(vals > tol[degree][:, None])):
            kept.append((int(degree[c]), -float(vals[c, e]), idx[c], vecs[c, :, e]))
    components = [ImmersionComponent(0, {(0,) * m.n_vars: 1.0})]
    for d, neg, positions, vec in sorted(kept, key=lambda t: t[:2]):
        w = np.sqrt(-neg) * vec
        coeffs = {b[i].exponents: float(c) for i, c in zip(positions, w) if c != 0.0}
        components.append(ImmersionComponent(d, coeffs))
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
        layout = _spectral_layout(dom.d, cutoff, plan.rows, plan.cols, symmetries(dom))
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
