"""Truncated algebra of Hermitian kernel expansions around the origin.

A :class:`HermitianSeries` models a real-analytic kernel

    S(z, zbar) = sum_{j,k} b_{jk} z^{m_j} zbar^{m_k}

truncated so that both the holomorphic degree |m_j| and the antiholomorphic
degree |m_k| stay <= cutoff.  Positions j, k refer to the shared graded
enumeration from :mod:`wallachkit.multiindex`.  All kernels handled here are
real on the diagonal, so coefficients are real with b_{jk} = b_{kj}; the
class stores only the lower-triangle pairs (j <= k), which makes Hermitian
symmetry structural rather than a property to maintain.

:func:`product` never builds a table of index sums.  It groups the entries
of both factors by bidegree (|m_j|, |m_k|), forms only the pairs whose
bidegrees survive the truncation, ranks their exponent sums in closed form
(:meth:`Basis.rank`) and sums equal targets with np.unique and bincount, so
its memory follows the number of surviving pairs rather than the basis size
squared.  Products of torus-invariant kernels, such as the catalog's
1 - N, stay torus-invariant, which is what splits their graded blocks into
the weight components :mod:`wallachkit.calabi` solves one at a time.

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

@dataclass(frozen=True)
class HermitianSeries:
    """Truncated Hermitian coefficient array; immutable value object.

    coeffs maps canonical position pairs (j, k) with j <= k to real
    coefficients; absent pairs are zero and the (k, j) mirror is implied.
    """

    n_vars: int
    cutoff: int
    coeffs: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        canonical: dict[tuple[int, int], float] = {}
        for (j, k), v in self.coeffs.items():
            v = float(v)
            if v == 0.0:
                continue
            key = (j, k) if j <= k else (k, j)
            prev = canonical.get(key)
            if prev is not None and prev != v:
                raise ValueError(f"conflicting Hermitian pair at {key}: {prev} vs {v}")
            canonical[key] = v
        object.__setattr__(self, "coeffs", canonical)

    @property
    def basis(self) -> Basis:
        return basis(self.n_vars, self.cutoff)

    def coefficient(self, hol: tuple[int, ...], anti: tuple[int, ...]) -> float:
        """Coefficient of z^hol zbar^anti (0.0 if absent or out of range)."""
        b = self.basis
        j = b.position_or_none(tuple(hol))
        k = b.position_or_none(tuple(anti))
        if j is None or k is None:
            return 0.0
        return self.coeffs.get((j, k) if j <= k else (k, j), 0.0)

    def items_full(self) -> Iterable[tuple[int, int, float]]:
        """All (j, k, value) entries with mirrors expanded."""
        for (j, k), v in self.coeffs.items():
            yield j, k, v
            if j != k:
                yield k, j, v

    def constant_term(self) -> float:
        return self.coeffs.get((0, 0), 0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of items_full, in the same order."""
        pairs = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, 2)
        vals = np.fromiter(self.coeffs.values(), dtype=np.float64, count=len(pairs))
        # Each entry followed by its mirror; a diagonal entry has none.
        keep = np.ones((len(pairs), 2), dtype=bool)
        keep[:, 1] = pairs[:, 0] != pairs[:, 1]
        keep = keep.ravel()
        return pairs.ravel()[keep], pairs[:, ::-1].ravel()[keep], np.repeat(vals, 2)[keep]

    def __repr__(self) -> str:
        return (
            f"HermitianSeries(n_vars={self.n_vars}, cutoff={self.cutoff}, "
            f"nnz={len(self.coeffs)})"
        )


def zero(n_vars: int, cutoff: int) -> HermitianSeries:
    return HermitianSeries(n_vars, cutoff, {})


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
    coeffs: dict[tuple[int, int], float] = {}
    for (hol, anti), v in terms.items():
        j = b.position_or_none(tuple(hol))
        k = b.position_or_none(tuple(anti))
        if j is None or k is None:
            continue
        key = (j, k) if j <= k else (k, j)
        prev = coeffs.get(key)
        if prev is not None and prev != float(v):
            raise ValueError(f"conflicting Hermitian pair for {(hol, anti)}")
        coeffs[key] = float(v)
    return HermitianSeries(n_vars, cutoff, coeffs)


def _check_shapes(a: HermitianSeries, b: HermitianSeries) -> None:
    if a.n_vars != b.n_vars or a.cutoff != b.cutoff:
        raise ValueError(
            f"shape mismatch: ({a.n_vars}, cutoff {a.cutoff}) vs "
            f"({b.n_vars}, cutoff {b.cutoff})"
        )


def add(a: HermitianSeries, b: HermitianSeries) -> HermitianSeries:
    _check_shapes(a, b)
    out = dict(a.coeffs)
    for key, v in b.coeffs.items():
        out[key] = out.get(key, 0.0) + v
    return HermitianSeries(a.n_vars, a.cutoff, out)


def scale(a: HermitianSeries, s: float) -> HermitianSeries:
    return HermitianSeries(a.n_vars, a.cutoff, {k: v * s for k, v in a.coeffs.items()})


def linear_combination(
    series_list: Iterable[HermitianSeries], weights: Iterable[float]
) -> HermitianSeries:
    out: dict[tuple[int, int], float] = {}
    shape: tuple[int, int] | None = None
    for s, w in zip(series_list, weights):
        if shape is None:
            shape = (s.n_vars, s.cutoff)
        elif shape != (s.n_vars, s.cutoff):
            raise ValueError("shape mismatch in linear combination")
        if w == 0.0:
            continue
        for key, v in s.coeffs.items():
            out[key] = out.get(key, 0.0) + w * v
    if shape is None:
        raise ValueError("empty linear combination")
    return HermitianSeries(shape[0], shape[1], out)


def _bidegree_groups(
    s: HermitianSeries,
) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """All (j, k, value) entries, mirrors expanded, grouped by the degrees
    (|m_j|, |m_k|) of their two sides: [(hol_deg, anti_deg, j, k, values)]."""
    j, k, v = s._arrays()
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
    from Basis.rank, and equal targets are summed with np.unique and bincount.
    """
    _check_shapes(a, b)
    if a.is_zero() or b.is_zero():
        return zero(a.n_vars, a.cutoff)
    bas = a.basis
    exps = bas.exponents
    m = len(bas)
    keys, vals = [], []
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
            keys.append(p * m + q)
            vals.append(w)
    if not keys:
        return zero(a.n_vars, a.cutoff)
    targets, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(slot, weights=np.concatenate(vals))
    rows, cols = np.divmod(targets, m)
    coeffs = dict(zip(zip(rows.tolist(), cols.tolist()), sums.tolist()))
    return HermitianSeries(a.n_vars, a.cutoff, coeffs)


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
    weights = []
    for k in range(1, len(powers) + 1):
        w = coefficient_of_power(k)
        weights.append(w)
    if not powers:
        return zero(q.n_vars, q.cutoff)
    return linear_combination(powers, weights)


def generalized_binomial(lam: float, k: int) -> float:
    """C(lam+k-1, k) by running product: prod_{i=1..k} (lam+i-1)/i."""
    c = 1.0
    for i in range(1, k + 1):
        c *= (lam + i - 1) / i
    return c


def inverse_power(q: HermitianSeries, lam: float) -> HermitianSeries:
    """(1 - Q)^(-lam) - 1 truncated; lam may be any real."""
    if q.constant_term() != 0.0:
        raise ValueError("inverse_power requires Q(0) = 0")
    powers = power_sequence(q)
    weights = []
    c = 1.0
    for k in range(1, len(powers) + 1):
        c *= (lam + k - 1) / k
        weights.append(c)
    if not powers:
        return zero(q.n_vars, q.cutoff)
    return linear_combination(powers, weights)


def log_one_minus(q: HermitianSeries) -> HermitianSeries:
    """-log(1 - Q) truncated."""
    return _expand_in_powers(q, lambda k: 1.0 / k)


def rebase(series: HermitianSeries, cutoff: int) -> HermitianSeries:
    """Same kernel at a different cutoff; extra terms drop, none appear."""
    if cutoff == series.cutoff:
        return series
    old = series.basis
    return from_terms(
        series.n_vars,
        cutoff,
        {
            (old[j].exponents, old[k].exponents): v
            for (j, k), v in series.coeffs.items()
        },
    )


def embed(series: HermitianSeries, n_vars: int, cutoff: int | None = None) -> HermitianSeries:
    """Reinterpret in a larger variable set (new trailing variables unused)."""
    if n_vars < series.n_vars:
        raise ValueError("cannot embed into fewer variables")
    if cutoff is None:
        cutoff = series.cutoff
    pad = (0,) * (n_vars - series.n_vars)
    old = series.basis
    return from_terms(
        n_vars,
        cutoff,
        {
            (old[j].exponents + pad, old[k].exponents + pad): v
            for (j, k), v in series.coeffs.items()
        },
    )


def max_abs_diff(a: HermitianSeries, b: HermitianSeries) -> float:
    _check_shapes(a, b)
    keys = set(a.coeffs) | set(b.coeffs)
    return max(
        (abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) for k in keys),
        default=0.0,
    )


def evaluate(series: HermitianSeries, z: np.ndarray, w: np.ndarray) -> complex:
    """Evaluate sum b_{jk} z^{m_j} conj(w)^{m_k} at concrete points."""
    b = series.basis
    z = np.asarray(z, dtype=np.complex128)
    wbar = np.conj(np.asarray(w, dtype=np.complex128))
    # Monomial values per basis position, computed once per call.
    mono_z = np.array([np.prod(z ** np.array(mi.exponents)) for mi in b])
    mono_w = np.array([np.prod(wbar ** np.array(mi.exponents)) for mi in b])
    total = 0.0 + 0.0j
    for j, k, v in series.items_full():
        total += v * mono_z[j] * mono_w[k]
    return complex(total)
