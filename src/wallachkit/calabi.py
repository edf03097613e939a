"""Truncated positivity analysis for scaled Bergman kernels.

For a catalog domain with generic norm N and a real exponent lambda, the
kernel N^(-lambda) - 1 expands as sum b_{jk} z^{m_j} zbar^{m_k}.  Positive
semidefiniteness of the (infinite) coefficient matrix decides whether the
scaled metric embeds isometrically into projective space; this module builds
the truncated matrix, checks its structural properties (vanishing pure terms,
graded block form), renders a per-block PSD verdict, and extracts the
truncated immersion components when the verdict is positive.

The matrix keeps sorted COO entries on its graded blocks, never a dense
array.  The kernel is invariant under the maximal torus of K
(z -> D1 z D2 on type I), so each block is a direct sum of small weight
spaces: permuted, the matrix is block diagonal, with blocks given by the
connected components of its pattern, none of which crosses degrees.
K also holds coordinate permutations (domains.symmetries) that commute with
the matrix, so components they map onto each other share a spectrum.

The expansion is the Euler-operator recurrence on N's terms, compiled with
lambda left open and replayed at lambda (series.compile_recurrence).  Under
the domain's permutations the compile keeps only the orbit representatives
of its weight components, which are the components of its pattern: the
matrix holds their entries, exact zeros included, and the orbit sizes and
component counts come from the compile.  One lambda (calabi_matrix)
compiles and replays the plan once and caches nothing; a grid
(scan_lambdas) compiles it once per (domain, cutoff), with the spectral
layout of its pattern, and replays it per lambda: the same numbers as the
single verdicts, bit for bit.  graded_blocks of an arbitrary series keeps
every entry and labels the components of its pattern, each its own orbit.

One spectral pass solves one component per orbit, each size as one stacked
eigenvalue problem for all degrees; each degree's verdict is read off its
own components, weighted by orbit size, and is that of the dense block.  It
computes eigenvalues only; a refuted degree's witness is an eigenvector of
its minimising component alone, zero-padded to the block, where minima that
tie to a few ulps of the block scale go to the first component in stack
order; a scan, whose rows read no witness, solves none.  extract_immersion
reads every eigenvector of every representative, and one per component of
its orbit by permuting its exponents.  The orbits and scatter depend on the
pattern alone (a SpectralLayout), which a scan shares across its lambdas.

Verdicts carry an asymmetric certainty tag: a negative block is a rigorous
refutation (a concrete principal submatrix fails), while an all-PSD result at
finite cutoff is only "consistent-to-cutoff".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from . import series as hs
from .multiindex import basis, check_memory
from .series import HermitianSeries, _labels
from .domains import DomainModel, norm_series, symmetries

# The block tolerance of every verdict (_spectral_pass).
DEFAULT_TOL_ABS = 1e-10
DEFAULT_TOL_REL = 1e-9

# Pure terms a_{j0}, a_{0j} and off-grade entries must vanish to this level.
NORMALIZATION_TOL = 1e-13
GRADING_REL_TOL = 1e-13
# Memory per term of an immersion, from extraction to the written report
# (coefficient dicts, JSON keys, text): whole-process peaks of 533-555 B per
# term on I:3,3 at lambda = 4, cutoffs 10 and 11, with --format json.
IMMERSION_TERM_BYTES = 560
# Component minima this close, relative to the block scale (max |b|), tie
# for the witness.
WITNESS_TIE_REL = 64 * np.finfo(np.float64).eps


class GradingError(Exception):
    """Off-grade coefficients exceeded tolerance; input is not circular."""


def bergman_diastasis_series(dom: DomainModel, lam: float, cutoff: int) -> HermitianSeries:
    """Truncated expansion of N(z, zbar)^(-lambda) - 1, by the Euler-operator
    recurrence on N's terms (series.inverse_norm_power)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return hs.inverse_norm_power(norm_series(dom, cutoff), lam)


def normalization_check(s: HermitianSeries) -> bool:
    """True iff every pure term (one side the zero index, not both) vanishes."""
    pure = (s.rows == 0) & (s.cols != 0)  # canonical entries have j <= k
    return not (np.abs(s.values[pure]) > NORMALIZATION_TOL).any()


@dataclass(frozen=True, eq=False)
class CalabiMatrix:
    """The graded coefficient matrix: its on-grade entries of positive degree
    as canonical COO (rows <= cols, at basis positions), sorted by (row, col);
    the mirrors are implied.  orbits groups the components of the pattern
    into orbits under coordinate permutations that fix the kernel
    (orbits.generators) and names a representative of each; a verdict reads
    the representatives alone, as the entries of the other components are
    images of theirs.  calabi_matrix and the Cartan-Hartogs assembly keep
    only the representatives' entries, exact zeros included, and their
    orbits come from the recurrence; graded_blocks keeps the series' nonzero
    entries and makes each component of their pattern its own orbit.  sizes
    is what the recurrence plan holds (RecurrencePlan.sizes, the base's for
    the assembly), empty for graded_blocks."""

    domain_spec: str
    lam: float | None
    n_vars: int
    cutoff: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    off_grade_max: float
    max_abs_coeff: float
    orbits: hs.Orbits
    sizes: dict = field(default_factory=dict)


def graded_blocks(
    s: HermitianSeries, domain_spec: str = "", lam: float | None = None
) -> CalabiMatrix:
    """The coefficient matrix restricted to its graded blocks.

    Off-grade entries (unequal degrees on the two sides) are recorded in
    off_grade_max and dropped; they must sit at rounding level relative to
    the largest coefficient, otherwise the input does not describe a
    circular-domain kernel and a GradingError is raised.  Each component of
    the pattern is its own orbit (_label_orbits).
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
    orbits = _label_orbits(s.n_vars, s.cutoff, rows, cols)
    return CalabiMatrix(
        domain_spec, lam, s.n_vars, s.cutoff, rows, cols, values, off_grade, max_abs, orbits
    )


def calabi_matrix(dom: DomainModel, lam: float, cutoff: int) -> CalabiMatrix:
    """N^(-lambda) - 1 on the pattern of its recurrence compiled under dom's
    symmetries: the entries of the orbit representatives, exact zeros
    included (all on grade, of positive degree)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    plan = hs.compile_recurrence(norm_series(dom, cutoff), symmetries(dom))
    values = plan.values(lam)
    return CalabiMatrix(dom.spec_string, lam, dom.d, cutoff, plan.rows, plan.cols, values, 0.0,
                        float(np.abs(values).max(initial=0.0)), plan.orbits, plan.sizes())


@dataclass(frozen=True, eq=False)
class BlockVerdict:
    degree: int
    dim: int
    min_eigenvalue: float
    rank: int           # eigenvalues above the block tolerance
    tol: float
    witness: np.ndarray | None  # eigenvector of the minimum eigenvalue if negative
    components: int  # connected components of the block's pattern
    largest_component: int
    solved_components: int  # representatives of their orbits, the components eigensolved


@dataclass(frozen=True, eq=False)
class Verdict:
    psd: bool
    per_block: tuple[BlockVerdict, ...]
    cutoff: int
    certainty: str  # "refuted" | "consistent-to-cutoff"

    @property
    def min_eigenvalue(self) -> float:
        return min((bv.min_eigenvalue for bv in self.per_block), default=0.0)


@dataclass(frozen=True, eq=False)
class SpectralLayout:
    """The value-free part of a spectral pass over a Calabi matrix's pattern.

    runs[d]:runs[d + 1] are degree d's entries.  Per size, sizes ascending:
    the (count, size) positions of the orbit representatives (hs.Orbits) and
    the offset of their stack in one flat buffer, where entries sel go to
    flat indices mine, their mirrors to mirror.  Per representative, in
    stack order: degree, size, orbit size; per degree: its components and
    representatives.
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


def _label_orbits(n_vars: int, cutoff: int, rows: np.ndarray, cols: np.ndarray) -> hs.Orbits:
    """The connected components of the pattern rows, cols of a CalabiMatrix
    (every position of positive degree is in one), each its own orbit."""
    label = _labels(rows, cols, len(basis(n_vars, cutoff)))
    # Grouped by label, the least position of a component, and ascending in each.
    positions = np.argsort(label[1:], kind="stable") + 1  # without the constant term
    sizes = np.unique(label[positions], return_counts=True)[1]
    return hs.Orbits((), positions, sizes, np.ones(len(sizes), dtype=np.int64))


def _spectral_layout(
    n_vars: int, cutoff: int, rows: np.ndarray, cols: np.ndarray, orbits: hs.Orbits
) -> SpectralLayout:
    """The layout of the entries rows, cols of a CalabiMatrix (canonical,
    sorted, on grade and of positive degree) over the orbit representatives
    of orbits; entries outside them are not read."""
    b = basis(n_vars, cutoff)
    n, degrees = len(b), b.degrees
    # Rows are sorted and the order is graded, so each degree's entries are one run.
    runs = np.searchsorted(rows, np.searchsorted(degrees, np.arange(cutoff + 2)))
    starts = np.cumsum(orbits.sizes) - orbits.sizes
    # Per position: the size of its component (0 until its size comes up)
    # and its row in the stack of that size, flattened to (count * size, size).
    width = np.zeros(n, dtype=np.int64)
    place = np.empty(n, dtype=np.int64)
    parts, stack, sel, mine, mirror, offset = [], [], [], [], [], 0
    for size in np.unique(orbits.sizes).tolist():
        reps = np.flatnonzero(orbits.sizes == size)
        idx = orbits.positions[starts[reps][:, None] + np.arange(size)]
        width[idx], place[idx.ravel()] = size, np.arange(idx.size)
        sel.append(np.flatnonzero(width[rows] == size))
        j, k = place[rows[sel[-1]]], place[cols[sel[-1]]]
        mine.append(offset + j * size + k % size)
        mirror.append(offset + k * size + j % size)
        parts.append((idx, offset))
        stack.append(reps)
        offset += idx.size * size
    stack = np.concatenate(stack)
    size, weight = orbits.sizes[stack], orbits.counts[stack]
    degree = degrees[orbits.positions[starts[stack]]]
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
    layout: SpectralLayout, values: np.ndarray, vectors: bool = False, witnesses: bool = True,
) -> tuple[tuple[BlockVerdict, ...], dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per-degree verdicts, and the spectrum as {size: (positions, values,
    matrices)}, from one stacked eigensolve per size of the representatives
    with the given values on the layout's pattern: eigvalsh, with the
    components as the matrices and one eigh of a refuted degree's witness
    representative, the first in stack order whose minimum ties with the
    least (WITNESS_TIE_REL), or with vectors eigh, with
    the eigenvectors as the matrices.  Ranks count each orbit in full.
    Without witnesses every witness is None and no eigh runs for them.

    Every verdict reads its tolerance from this one rule: degree d's block
    tolerance is max(DEFAULT_TOL_ABS, DEFAULT_TOL_REL * s_d), with s_d the
    block scale, max |b| over the degree's entries."""
    runs, cutoff, degree, size = layout.runs, layout.cutoff, layout.degree, layout.size
    scale, filled = np.zeros(cutoff + 1), runs[1:] > runs[:-1]
    scale[filled] = np.maximum.reduceat(np.abs(values), runs[:-1][filled])
    bad = int(np.argmin(np.isfinite(scale)))  # the first non-finite degree, if any
    if not isfinite(scale[bad]):
        raise RuntimeError(
            f"degree-{bad} block has non-finite coefficients (max |b| = {scale[bad]})"
        )
    tol = np.maximum(DEFAULT_TOL_ABS, DEFAULT_TOL_REL * scale)
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
    lowest = eigenvalues[first]
    components, solved = layout.components, layout.solved
    least = lowest[np.lexsort((lowest, degree))[np.cumsum(solved) - solved]]
    # The witness comes from the first representative in stack order whose
    # minimum is within a few ulps of the block scale of the least: minima
    # equal in exact arithmetic differ by rounding, which must not choose it.
    ties = np.flatnonzero(lowest <= least[degree] + WITNESS_TIE_REL * scale[degree])
    largest = np.zeros(cutoff + 1, dtype=np.int64)
    np.maximum.at(largest, degree, size)
    b = basis(layout.n_vars, cutoff)
    verdicts = []
    for d in range(1, cutoff + 1):
        sl, min_eig, witness = b.degree_slice(d), float(least[d]), None
        if witnesses and min_eig < -tol[d]:
            c = ties[np.argmax(degree[ties] == d)]
            # The representatives of one size are consecutive in stack order.
            idx, _, mats = spectra[size[c]]
            row = c - np.searchsorted(size, size[c])
            mat = mats[row] if vectors else _eigen(mats[row], True)[1]
            witness = np.zeros(sl.stop - sl.start)
            witness[idx[row] - sl.start] = mat[:, 0]
        verdicts.append(BlockVerdict(d, sl.stop - sl.start, min_eig, int(rank[d]), float(tol[d]),
                                     witness, int(components[d]), int(largest[d]), int(solved[d])))
    return tuple(verdicts), spectra


def psd_verdict(m: CalabiMatrix) -> Verdict:
    """Per-block minimum eigenvalues and the aggregate PSD decision."""
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols, m.orbits)
    per_block, _ = _spectral_pass(layout, m.values)
    psd = not any(bv.min_eigenvalue < -bv.tol for bv in per_block)
    certainty = "consistent-to-cutoff" if psd else "refuted"
    return Verdict(psd, per_block, m.cutoff, certainty)


@dataclass(frozen=True, eq=False)
class ImmersionComponent:
    """Homogeneous polynomial f(z) = sum coeffs[m] z^m of the given degree."""

    degree: int
    coeffs: dict[tuple[int, ...], float]


def extract_immersion(m: CalabiMatrix) -> list[ImmersionComponent]:
    """Components f_j with sum_j f_j(z) conj(f_j(w)) = 1 + series, to cutoff.

    Each PSD block factors as B = L L^T through the eigen-decompositions of
    its components, taken per degree in decreasing eigenvalue order;
    eigenvalues at or below the block tolerance are clipped to zero, so the
    component count per degree equals the block's reported rank.  The
    orbit representatives are solved, and each eigenvector stands for one
    per component of its orbit, its exponents permuted.  The terms they can
    hold, orbit count x size^2 summed over the representatives, are charged
    for the whole write-out (IMMERSION_TERM_BYTES) before any is built.
    """
    terms = int(m.orbits.counts @ m.orbits.sizes**2)  # at most size vectors of size terms each
    check_memory(IMMERSION_TERM_BYTES * terms, f"the immersion's write-out of up to {terms} terms")
    layout = _spectral_layout(m.n_vars, m.cutoff, m.rows, m.cols, m.orbits)
    per_block, parts = _spectral_pass(layout, m.values, vectors=True)
    if any(bv.min_eigenvalue < -bv.tol for bv in per_block):
        raise ValueError("immersion extraction requires a PSD coefficient matrix")
    b = basis(m.n_vars, m.cutoff)
    tol = np.array([0.0] + [bv.tol for bv in per_block])
    weights = np.split(layout.weight, np.cumsum([len(idx) for idx, *_ in parts.values()])[:-1])
    kept = []
    for (idx, vals, vecs), weight in zip(parts.values(), weights):
        degree = b.degrees[idx[:, 0]]
        keep = vals > tol[degree][:, None]
        for c in np.flatnonzero(keep.any(axis=1)):
            orbit = _orbit_exponents(b, idx[c], m.orbits.generators, weight[c])
            for e in np.flatnonzero(keep[c]):
                kept.extend((int(degree[c]), -float(vals[c, e]), exps, vecs[c, :, e]) for exps in orbit)
    components = [ImmersionComponent(0, {(0,) * m.n_vars: 1.0})]
    for d, neg, exps, vec in sorted(kept, key=lambda t: t[:2]):
        w = np.sqrt(-neg) * vec
        coeffs = {tuple(e): float(c) for e, c in zip(exps.tolist(), w) if c != 0.0}
        components.append(ImmersionComponent(d, coeffs))
    return components


def _orbit_exponents(b, positions: np.ndarray, generators: Sequence, count: int) -> list:
    """The exponent vectors of the count components in the orbit of the one
    at positions under generators, each in the order of positions: the
    component itself first, then its images, breadth first."""
    exps = b.exponents[positions]
    perms, seen, start = [np.arange(b.n_vars)], {int(positions[0])}, 0
    while start < len(perms) < count:  # one ranking per generation of images
        images = np.array(perms[start:])[:, np.array(generators)].reshape(-1, b.n_vars)
        start = len(perms)
        for image, least in zip(images, b.rank(exps[:, images]).min(axis=0).tolist()):
            if least not in seen and len(perms) < count:
                seen.add(least)
                perms.append(image)
    return [exps[:, p] for p in perms]


def immersion_reconstruction_error(
    components: Sequence[ImmersionComponent], m: CalabiMatrix
) -> float:
    """Max |sum_j f_j(z) conj(f_j(w)) - (1 + m)| over m's representatives and
    the constant term, exact zeros included: the components on them have no
    term outside them, and the others are theirs at permuted exponents."""
    b = basis(m.n_vars, m.cutoff)
    n = len(b)
    on_rep = np.zeros(n, dtype=bool)
    on_rep[m.orbits.positions] = on_rep[0] = True
    firsts = b.rank(np.array([next(iter(comp.coeffs)) for comp in components]))
    keys, vals = [np.zeros(1, dtype=np.int64), m.rows * n + m.cols], [[-1.0], -m.values]
    for c in np.flatnonzero(on_rep[firsts]).tolist():
        pos = b.rank(np.array(list(components[c].coeffs)))
        f = np.array(list(components[c].coeffs.values()))
        upper = pos[:, None] <= pos
        keys.append((pos[:, None] * n + pos)[upper])
        vals.append(np.outer(f, f)[upper])
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    return float(np.abs(np.bincount(slot, np.concatenate(vals), len(keys))).max())


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
        plan = hs.compile_recurrence(norm_series(dom, cutoff), symmetries(dom))
        layout = _spectral_layout(dom.d, cutoff, plan.rows, plan.cols, plan.orbits)
        _SCAN_PLAN_CACHE[key] = plan, layout
    return _SCAN_PLAN_CACHE[key]


def scan_sizes(dom: DomainModel, cutoff: int) -> dict[str, int]:
    """RecurrencePlan.sizes of the plan scan_lambdas replays for (dom, cutoff)."""
    return _scan_plan(dom, cutoff)[0].sizes()


def scan_lambdas(dom: DomainModel, lams: Iterable[float], cutoff: int) -> list[ScanRow]:
    """Per-(lambda, degree) block eigen-data; one row per block, in grid order.

    The rows are those of psd_verdict(calabi_matrix(dom, lambda, cutoff)),
    bit for bit: both solve the recurrence's pattern.  The plan and the
    spectral layout of its pattern are built once per (domain, cutoff) and
    cached, so a scale costs one replay of the recurrence and the stacked
    eigensolves.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    plan, layout = _scan_plan(dom, cutoff)
    rows = []
    for lam in lams:
        lam = float(lam)
        # A scan row reads no witness, so none is solved for.
        per_block, _ = _spectral_pass(layout, plan.values(lam), witnesses=False)
        rows.extend(
            ScanRow(lam, bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
            for bv in per_block
        )
    return rows
