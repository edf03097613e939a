"""Truncated algebra of Hermitian kernel expansions around the origin.

A :class:`HermitianSeries` models a real-analytic kernel

    S(z, zbar) = sum_{j,k} b_{jk} z^{m_j} zbar^{m_k}

truncated so that both the holomorphic degree |m_j| and the antiholomorphic
degree |m_k| stay <= cutoff.  Positions j, k refer to the shared graded
enumeration from :mod:`wallachkit.multiindex`.  All kernels handled here are
real on the diagonal, so coefficients are real with b_{jk} = b_{kj}.

The storage is sorted COO: three read-only arrays rows, cols (int64) and
values (float64) hold the nonzero canonical entries (j <= k) sorted by
(j, k); the (k, j) mirror is implied, which makes Hermitian symmetry
structural.  Every series comes out of :func:`from_entries`, which mirrors
j > k, drops positions past the basis, sums duplicates (np.unique and
bincount) and drops zeros; sums, rebasing and products all feed it arrays.

:func:`product` never builds a table of index sums.  It groups the entries
of both factors by bidegree (|m_j|, |m_k|), forms only the pairs whose
bidegrees survive the truncation, ranks their exponent sums in closed form
(:meth:`Basis.rank`) and hands them to :func:`from_entries`, so its memory
follows the number of surviving pairs rather than the basis size squared.
Products of torus-invariant kernels, such as the catalog's 1 - N, stay
torus-invariant, which is what splits their graded blocks into the weight
components :mod:`wallachkit.calabi` solves one at a time.

The transcendental operations expand in powers of a series Q with zero
constant term:

    inverse_power(Q, lam) = (1 - Q)^(-lam) - 1 = sum_{k>=1} C(lam+k-1, k) Q^k
    log_one_minus(Q)      = -log(1 - Q)       = sum_{k>=1} Q^k / k

with C(.,.) the generalized binomial coefficient, computed by a running
product to avoid gamma-function cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .multiindex import Basis, basis


@dataclass(frozen=True, eq=False)
class HermitianSeries:
    """Truncated Hermitian coefficient array; immutable value object.

    rows, cols and values are the nonzero canonical entries (j <= k), sorted
    by (j, k); build instances with from_entries, which keeps that form.
    """

    n_vars: int
    cutoff: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def basis(self) -> Basis:
        return basis(self.n_vars, self.cutoff)

    @property
    def coeffs(self) -> dict[tuple[int, int], float]:
        """{(j, k): value} over the canonical entries (a derived copy)."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.values.tolist()))

    def coefficient(self, hol: tuple[int, ...], anti: tuple[int, ...]) -> float:
        """Coefficient of z^hol zbar^anti (0.0 if absent or out of range)."""
        b = self.basis
        j = b.position_or_none(tuple(hol))
        k = b.position_or_none(tuple(anti))
        if j is None or k is None:
            return 0.0
        j, k = min(j, k), max(j, k)
        lo, hi = np.searchsorted(self.rows, (j, j + 1))
        i = lo + int(np.searchsorted(self.cols[lo:hi], k))
        return float(self.values[i]) if i < hi and self.cols[i] == k else 0.0

    def mirrored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of every entry: the canonical ones, then the
        (k, j) mirrors of the off-diagonal ones."""
        off = self.rows != self.cols
        return (
            np.concatenate((self.rows, self.cols[off])),
            np.concatenate((self.cols, self.rows[off])),
            np.concatenate((self.values, self.values[off])),
        )

    def items_full(self) -> Iterable[tuple[int, int, float]]:
        """All (j, k, value) entries with mirrors expanded."""
        return zip(*(a.tolist() for a in self.mirrored()))

    def constant_term(self) -> float:
        if self.is_zero() or self.rows[0] != 0 or self.cols[0] != 0:
            return 0.0
        return float(self.values[0])

    def is_zero(self) -> bool:
        return len(self.values) == 0

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))

    def __repr__(self) -> str:
        return (
            f"HermitianSeries(n_vars={self.n_vars}, cutoff={self.cutoff}, "
            f"nnz={len(self.values)})"
        )


def from_entries(n_vars: int, cutoff: int, rows, cols, values) -> HermitianSeries:
    """The series with entries b_{rows[i], cols[i]} += values[i].

    Entries with j > k count for their mirror (k, j), positions at or past
    the basis size are dropped (the truncation rule), duplicates are summed
    in input order and zero sums are dropped.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    m = len(basis(n_vars, cutoff))  # basis() refuses n_vars < 1
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    keep = hi < m
    targets, slot = np.unique(lo[keep] * m + hi[keep], return_inverse=True)
    sums = np.bincount(slot, weights=values[keep], minlength=len(targets))
    nonzero = sums != 0.0
    rows, cols = np.divmod(targets[nonzero], m)
    values = np.asarray(sums[nonzero], dtype=np.float64)  # bincount of nothing is int64
    for a in (rows, cols, values):
        a.flags.writeable = False
    return HermitianSeries(n_vars, cutoff, rows, cols, values)


def zero(n_vars: int, cutoff: int) -> HermitianSeries:
    return from_entries(n_vars, cutoff, [], [], [])


def from_terms(
    n_vars: int,
    cutoff: int,
    terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], float],
) -> HermitianSeries:
    """Build a series from {(hol_exponents, anti_exponents): coefficient}.

    Terms beyond the cutoff are dropped (the truncation rule), mirrored pairs
    must agree.
    """
    b = basis(n_vars, cutoff)
    m = len(b)
    exps = np.array(list(terms), dtype=np.int64).reshape(len(terms), 2, n_vars)
    if (exps < 0).any():
        raise ValueError("exponents must be nonnegative")
    j, k = b.rank(exps).T
    values = np.fromiter(terms.values(), dtype=np.float64, count=len(terms))
    keys = np.minimum(j, k) * m + np.maximum(j, k)
    _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    clash = (values != values[first][slot]) & (np.maximum(j, k) < m)
    if clash.any():
        hol, anti = list(terms)[int(np.argmax(clash))]
        raise ValueError(f"conflicting Hermitian pair for {(hol, anti)}")
    return from_entries(n_vars, cutoff, j[first], k[first], values[first])


def _check_shapes(a: HermitianSeries, b: HermitianSeries) -> None:
    if a.n_vars != b.n_vars or a.cutoff != b.cutoff:
        raise ValueError(
            f"shape mismatch: ({a.n_vars}, cutoff {a.cutoff}) vs "
            f"({b.n_vars}, cutoff {b.cutoff})"
        )


def add(a: HermitianSeries, b: HermitianSeries) -> HermitianSeries:
    return linear_combination((a, b), (1.0, 1.0))


def scale(a: HermitianSeries, s: float) -> HermitianSeries:
    return linear_combination((a,), (s,))


def linear_combination(
    series_list: Iterable[HermitianSeries], weights: Iterable[float]
) -> HermitianSeries:
    """sum_i weights[i] * series_list[i]; each coefficient is summed in list order."""
    pairs = list(zip(series_list, weights))
    if not pairs:
        raise ValueError("empty linear combination")
    first = pairs[0][0]
    for s, _ in pairs:
        _check_shapes(first, s)
    pairs = [(s, w) for s, w in pairs if w != 0.0]
    if not pairs:
        return zero(first.n_vars, first.cutoff)
    return from_entries(
        first.n_vars,
        first.cutoff,
        np.concatenate([s.rows for s, _ in pairs]),
        np.concatenate([s.cols for s, _ in pairs]),
        np.concatenate([w * s.values for s, w in pairs]),
    )


def _bidegree_groups(
    s: HermitianSeries,
) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """All (j, k, value) entries, mirrors expanded, grouped by the degrees
    (|m_j|, |m_k|) of their two sides: [(hol_deg, anti_deg, j, k, values)]."""
    j, k, v = s.mirrored()
    degrees = s.basis.exponents.sum(axis=1)
    hol, anti = degrees[j], degrees[k]
    order = np.lexsort((anti, hol))
    j, k, v, hol, anti = j[order], k[order], v[order], hol[order], anti[order]
    cuts = np.flatnonzero((np.diff(hol) != 0) | (np.diff(anti) != 0)) + 1
    bounds = zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [len(j)])))
    return [(int(hol[lo]), int(anti[lo]), j[lo:hi], k[lo:hi], v[lo:hi]) for lo, hi in bounds]


def product(a: HermitianSeries, b: HermitianSeries) -> HermitianSeries:
    """Coefficientwise convolution, truncated at the cutoff on both sides.

    Only the entry pairs whose degrees survive the truncation are formed, one
    bidegree group pair at a time; the positions of their exponent sums come
    from Basis.rank, and from_entries sums equal targets.
    """
    _check_shapes(a, b)
    if a.is_zero() or b.is_zero():
        return zero(a.n_vars, a.cutoff)
    bas = a.basis
    exps = bas.exponents
    rows, cols, vals = [], [], []
    groups_b = _bidegree_groups(b)
    for hol_a, anti_a, ja, ka, va in _bidegree_groups(a):
        for hol_b, anti_b, jb, kb, vb in groups_b:
            hol, anti = hol_a + hol_b, anti_a + anti_b
            # Keep canonical targets (p <= q) only; the mirrored combinations
            # land on the transposed entry, which Hermitian symmetry makes
            # redundant.  The order is graded, so hol > anti puts every
            # target below the diagonal.
            if anti > a.cutoff or hol > anti:
                continue
            p = bas.rank(exps[ja][:, None] + exps[jb][None, :]).ravel()
            q = bas.rank(exps[ka][:, None] + exps[kb][None, :]).ravel()
            w = (va[:, None] * vb[None, :]).ravel()
            if hol == anti:
                keep = p <= q
                p, q, w = p[keep], q[keep], w[keep]
            rows.append(p)
            cols.append(q)
            vals.append(w)
    if not rows:
        return zero(a.n_vars, a.cutoff)
    return from_entries(
        a.n_vars, a.cutoff, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def power_sequence(q: HermitianSeries, max_power: int | None = None) -> list[HermitianSeries]:
    """[Q, Q^2, ...] until the truncated power vanishes.

    Once a truncated power is identically zero all higher powers are too
    (exponents only grow), so the sequence is complete for any series
    expansion in Q.  max_power caps the length; the default 2*cutoff+1 is
    always enough for a Q with zero constant term.
    """
    if max_power is None:
        max_power = 2 * q.cutoff + 1
    powers: list[HermitianSeries] = []
    current = q
    for _ in range(max_power):
        if current.is_zero():
            break
        powers.append(current)
        current = product(current, q)
    return powers


def _expand_in_powers(
    q: HermitianSeries, coefficient_of_power: Callable[[int], float]
) -> HermitianSeries:
    if q.constant_term() != 0.0:
        raise ValueError("series must have zero constant term")
    powers = power_sequence(q)
    if not powers:
        return zero(q.n_vars, q.cutoff)
    return linear_combination(powers, [coefficient_of_power(k) for k in range(1, len(powers) + 1)])


def generalized_binomial(lam: float, k: int) -> float:
    """C(lam+k-1, k) by running product: prod_{i=1..k} (lam+i-1)/i."""
    c = 1.0
    for i in range(1, k + 1):
        c *= (lam + i - 1) / i
    return c


def inverse_power(q: HermitianSeries, lam: float) -> HermitianSeries:
    """(1 - Q)^(-lam) - 1 truncated; lam may be any real."""
    return _expand_in_powers(q, lambda k: generalized_binomial(lam, k))


def log_one_minus(q: HermitianSeries) -> HermitianSeries:
    """-log(1 - Q) truncated."""
    return _expand_in_powers(q, lambda k: 1.0 / k)


def _reindex(series: HermitianSeries, n_vars: int, cutoff: int) -> HermitianSeries:
    """The same kernel over basis(n_vars, cutoff), new trailing variables unused."""
    exps = series.basis.exponents
    pad = np.zeros((len(exps), n_vars - series.n_vars), dtype=np.int64)
    pos = basis(n_vars, cutoff).rank(np.hstack((exps, pad)))
    return from_entries(n_vars, cutoff, pos[series.rows], pos[series.cols], series.values)


def rebase(series: HermitianSeries, cutoff: int) -> HermitianSeries:
    """Same kernel at a different cutoff; extra terms drop, none appear."""
    if cutoff == series.cutoff:
        return series
    return _reindex(series, series.n_vars, cutoff)


def embed(series: HermitianSeries, n_vars: int, cutoff: int | None = None) -> HermitianSeries:
    """Reinterpret in a larger variable set (new trailing variables unused)."""
    if n_vars < series.n_vars:
        raise ValueError("cannot embed into fewer variables")
    return _reindex(series, n_vars, series.cutoff if cutoff is None else cutoff)


def max_abs_diff(a: HermitianSeries, b: HermitianSeries) -> float:
    return linear_combination((a, b), (1.0, -1.0)).max_abs()


def evaluate(series: HermitianSeries, z: np.ndarray, w: np.ndarray) -> complex:
    """Evaluate sum b_{jk} z^{m_j} conj(w)^{m_k} at concrete points."""
    exps = series.basis.exponents
    z = np.asarray(z, dtype=np.complex128)
    wbar = np.conj(np.asarray(w, dtype=np.complex128))
    # Monomial values per basis position, computed once per call.
    mono_z = np.prod(z**exps, axis=1)
    mono_w = np.prod(wbar**exps, axis=1)
    rows, cols, values = series.mirrored()
    return complex(np.sum(values * mono_z[rows] * mono_w[cols]))
