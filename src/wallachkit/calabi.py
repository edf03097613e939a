"""Truncated positivity analysis for scaled Bergman kernels.

For a catalog domain with generic norm N and a real exponent lambda, the
kernel N^(-lambda) - 1 expands as sum b_{jk} z^{m_j} zbar^{m_k}.  Positive
semidefiniteness of the (infinite) coefficient matrix decides whether the
scaled metric embeds isometrically into projective space; this module builds
the truncated matrix, checks its structural properties (vanishing pure terms,
graded block form), renders a per-block PSD verdict, and extracts the
truncated immersion components when the verdict is positive.

The kernel is invariant under the maximal torus of K (z -> D1 z D2 on type
I), so each graded block is a direct sum of small weight spaces: permuted,
it is block diagonal, with blocks given by the connected components of its
nonzero pattern.  The verdict finds those components and solves one small
eigenproblem per component (stacked by size) instead of one dense
eigenproblem per block; the spectrum is the same, the witness is the
minimising component's eigenvector, zero-padded to the block.

Verdicts carry an asymmetric certainty tag: a negative block is a rigorous
refutation (a concrete principal submatrix fails), while an all-PSD result at
finite cutoff is only "consistent-to-cutoff".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from . import series as hs
from .multiindex import basis
from .series import HermitianSeries
from .domains import DomainModel, one_minus_norm

DEFAULT_TOL_ABS = 1e-10
DEFAULT_TOL_REL = 1e-9

# Pure terms a_{j0}, a_{0j} and off-grade entries must vanish to this level.
NORMALIZATION_TOL = 1e-13
GRADING_REL_TOL = 1e-13


# The dense graded blocks of one Calabi matrix may take at most this much memory.
DENSE_BLOCK_LIMIT_BYTES = 2 * 1024**3


class GradingError(Exception):
    """Off-grade coefficients exceeded tolerance; input is not circular."""


class BlockBudgetError(ValueError):
    """The dense graded blocks would exceed DENSE_BLOCK_LIMIT_BYTES."""


def check_block_budget(n_vars: int, cutoff: int) -> None:
    """Refuse, before any allocation, a cutoff whose dense degree blocks
    (sum over k of dim_k^2 float64 entries, dim_k = C(k + n - 1, k)) exceed
    DENSE_BLOCK_LIMIT_BYTES."""
    dims = [comb(k + n_vars - 1, k) for k in range(1, cutoff + 1)]
    need = 8 * sum(d * d for d in dims)
    if need > DENSE_BLOCK_LIMIT_BYTES:
        raise BlockBudgetError(
            f"cutoff {cutoff} in {n_vars} variables needs about {need / 1e9:.1f} GB of dense "
            f"blocks (largest {dims[-1]} wide), over the "
            f"{DENSE_BLOCK_LIMIT_BYTES / 1e9:.1f} GB limit"
        )


# Powers of Q = 1 - N are reused across lambda values of the same domain.
_POWER_CACHE: dict[tuple[str, int], list[HermitianSeries]] = {}


def _norm_powers(dom: DomainModel, cutoff: int) -> list[HermitianSeries]:
    key = (dom.spec_string, cutoff)
    powers = _POWER_CACHE.get(key)
    if powers is None:
        powers = hs.power_sequence(one_minus_norm(dom, cutoff))
        _POWER_CACHE[key] = powers
    return powers


def bergman_diastasis_series(dom: DomainModel, lam: float, cutoff: int) -> HermitianSeries:
    """Truncated expansion of N(z, zbar)^(-lambda) - 1."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    powers = _norm_powers(dom, cutoff)
    if not powers:
        return hs.zero(dom.d, cutoff)
    weights = [hs.generalized_binomial(lam, k) for k in range(1, len(powers) + 1)]
    return hs.linear_combination(powers, weights)


def normalization_check(s: HermitianSeries, tol: float = NORMALIZATION_TOL) -> bool:
    """True iff every pure term (one side the zero index, not both) vanishes."""
    pure = (s.rows == 0) & (s.cols != 0)  # canonical entries have j <= k
    return not (np.abs(s.values[pure]) > tol).any()


@dataclass(frozen=True, eq=False)
class GradedBlock:
    degree: int
    dim: int
    matrix: np.ndarray  # real symmetric, dim x dim


@dataclass(frozen=True, eq=False)
class CalabiMatrix:
    domain_spec: str
    lam: float | None
    n_vars: int
    cutoff: int
    blocks: tuple[GradedBlock, ...]
    off_grade_max: float
    max_abs_coeff: float


def graded_blocks(
    s: HermitianSeries,
    domain_spec: str = "",
    lam: float | None = None,
) -> CalabiMatrix:
    """Split the coefficient matrix into per-degree blocks.

    Off-grade entries (unequal degrees on the two sides) are recorded in
    off_grade_max and dropped; they must sit at rounding level relative to
    the largest coefficient, otherwise the input does not describe a
    circular-domain kernel and a GradingError is raised.
    """
    if not normalization_check(s):
        raise ValueError("series has non-vanishing pure terms")
    b = s.basis
    degrees = np.asarray(b.degrees)
    on_grade = degrees[s.rows] == degrees[s.cols]
    max_abs = s.max_abs()
    off_grade = float(np.abs(s.values[~on_grade]).max(initial=0.0))
    if off_grade > GRADING_REL_TOL * max(max_abs, 1e-300):
        raise GradingError(
            f"off-grade coefficient {off_grade:.3e} exceeds "
            f"{GRADING_REL_TOL:.0e} x max |b| = {GRADING_REL_TOL * max_abs:.3e}"
        )
    blocks = []
    for degree in range(1, s.cutoff + 1):
        sl = b.degree_slice(degree)
        matrix = np.zeros((sl.stop - sl.start, sl.stop - sl.start))
        # Rows are sorted and the order is graded, so this degree's rows are one run.
        lo, hi = np.searchsorted(s.rows, (sl.start, sl.stop))
        keep = on_grade[lo:hi]
        j, k = s.rows[lo:hi][keep] - sl.start, s.cols[lo:hi][keep] - sl.start
        matrix[j, k] = matrix[k, j] = s.values[lo:hi][keep]
        blocks.append(GradedBlock(degree, len(matrix), matrix))
    return CalabiMatrix(domain_spec, lam, s.n_vars, s.cutoff, tuple(blocks), off_grade, max_abs)


def calabi_matrix(dom: DomainModel, lam: float, cutoff: int) -> CalabiMatrix:
    """bergman_diastasis_series + graded_blocks with metadata attached."""
    check_block_budget(dom.d, cutoff)
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


def _components(matrix: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of a symmetric matrix,
    grouped by size: one (count, size) array of indices per size."""
    rows, cols = np.nonzero(matrix)
    label = np.arange(matrix.shape[0])
    # Label propagation with pointer jumping; label[i] <= i stays a node of
    # i's component, and at the fixpoint it is constant on each component.
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == size][:, None] + np.arange(size)] for size in np.unique(sizes)]


def _block_analysis(
    block: GradedBlock, tol_abs: float, tol_rel: float
) -> tuple[BlockVerdict, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The block's verdict and its spectrum as (indices, values, vectors) per
    component size, from one stacked eigensolve per size."""
    matrix = block.matrix
    scale = max(float(matrix.max()), -float(matrix.min()))
    if not np.isfinite(scale):
        raise RuntimeError(
            f"degree-{block.degree} block has non-finite coefficients (max |b| = {scale})"
        )
    tol = max(tol_abs, tol_rel * scale)
    parts = []
    for idx in _components(matrix):
        try:
            vals, vecs = np.linalg.eigh(matrix[idx[:, :, None], idx[:, None, :]])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"eigensolver failed on degree-{block.degree} block") from exc
        parts.append((idx, vals, vecs))
    idx, vals, vecs = min(parts, key=lambda part: part[1][:, 0].min())
    worst = int(np.argmin(vals[:, 0]))
    min_eig = float(vals[worst, 0])
    witness = None
    if min_eig < -tol:
        witness = np.zeros(block.dim)
        witness[idx[worst]] = vecs[worst, :, 0]
    verdict = BlockVerdict(
        block.degree,
        block.dim,
        min_eig,
        sum(int(np.count_nonzero(part[1] > tol)) for part in parts),
        tol,
        witness,
        sum(len(part[0]) for part in parts),
        parts[-1][0].shape[1],
    )
    return verdict, parts


def psd_verdict(
    m: CalabiMatrix,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> Verdict:
    """Per-block minimum eigenvalues and the aggregate PSD decision."""
    per_block = tuple(
        _block_analysis(block, tol_abs, tol_rel)[0] for block in m.blocks if block.dim
    )
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
    analyses = [_block_analysis(block, tol_abs, tol_rel) for block in m.blocks if block.dim]
    if any(bv.min_eigenvalue < -bv.tol for bv, _ in analyses):
        raise ValueError("immersion extraction requires a PSD coefficient matrix")
    b = basis(m.n_vars, m.cutoff)
    components = [ImmersionComponent(0, {(0,) * m.n_vars: 1.0})]
    for bv, parts in analyses:
        start = b.degree_slice(bv.degree).start
        kept = [
            (float(vals[c, e]), idx[c], vecs[c, :, e])
            for idx, vals, vecs in parts
            for c, e in zip(*np.nonzero(vals > bv.tol))
        ]
        for val, positions, vec in sorted(kept, key=lambda t: -t[0]):
            w = np.sqrt(val) * vec
            components.append(
                ImmersionComponent(
                    bv.degree,
                    {b[start + i].exponents: float(c) for i, c in zip(positions, w) if c != 0.0},
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

    The Q-power cache makes each lambda a cheap linear combination followed
    by the component eigensolves.
    """
    rows = []
    for lam in lams:
        lam = float(lam)
        verdict = psd_verdict(calabi_matrix(dom, lam, cutoff), tol_abs, tol_rel)
        rows.extend(
            ScanRow(lam, bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
            for bv in verdict.per_block
        )
    return rows
