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
bincount) and drops zeros; sums, embeddings and products all feed it arrays.
The one exception is :func:`inverse_norm_power`, whose recurrence emits
each level's entries in that form (the canonical pairs inside the level's
weight components, in order) and sums each one with a bincount, so only its
exact zeros need dropping.

:func:`product` never builds a table of index sums.  It groups the entries
of both factors by bidegree (|m_j|, |m_k|), forms only the pairs whose
bidegrees survive the truncation, ranks their exponent sums in closed form
without forming them (:meth:`Basis.rank`) and hands them to
:func:`from_entries`, so its memory follows the number of surviving pairs
rather than the basis size squared; it counts those pairs first and refuses
a product whose estimate exceeds the memory limit (:func:`check_memory`).
Products of torus-invariant kernels, such as the catalog's 1 - N, stay
torus-invariant, which is what splits their graded blocks into the weight
components :mod:`wallachkit.calabi` solves one at a time.

The transcendental operation expands in powers of a series Q with zero
constant term:

    inverse_power(Q, lam) = (1 - Q)^(-lam) - 1 = sum_{k>=1} C(lam+k-1, k) Q^k

with C(.,.) the generalized binomial coefficient, computed by a running
product to avoid gamma-function cancellation.  The powers of Q cost far more
than one expansion needs; they remain as an independent reference for the
recurrence.  Every expansion the program runs is N^(-lam) for a norm-like N
(constant term 1, bidegrees (g, g) only), by the Euler-operator recurrence
on N's few terms (J. C. P. Miller's power recurrence; Knuth, TAOCP vol. 2,
sec. 4.7), and one function forms its pairs: only the recurrence's weights
-n (a - g + lam g) depend on lam, so :func:`compile_recurrence` records the
pairs once and a :class:`RecurrencePlan` replays them for any lam, one
gather, product and bincount per level, exact zeros kept.  The compile
sorts no pairs: a term maps an entry to one of the same weight component
(a coset of the lattice spanned by N's gamma - delta), so each level's
entries are the canonical pairs inside its components and the entry a pair
feeds is arithmetic in its positions' ranks there, and every level's pair
counts follow from the components before any level is built: one schedule
sizes both the memory charge and each level's arrays.  Given coordinate
permutations that fix N, the compile forms only the pairs into the orbit
representatives of the weight components (the component of least position
in each orbit), a term's pairs from the source components it maps into one,
and a pair whose source lies in another component reads the source's image
in its representative: N^(-lam) is invariant under those permutations, so
the plan and its replay cover the representatives alone (:class:`Orbits`).
Without permutations every component represents itself.
:func:`inverse_norm_power` is one compile and one replay with the zeros
dropped.  The Calabi matrix (:mod:`wallachkit.calabi`, one lam or a scan
over many) replays one plan reduced by its domain's permutations, and the
Cartan-Hartogs assembly, N^(-lam) at a ladder of scales, the same plan of
its base, each scale replayed up to the last level it reads; both keep the
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import multiindex
from .multiindex import _INT64_MAX, Basis, basis, check_memory

# Memory per entry pair a product forms (ranks, values, their concatenation
# and from_entries' sort keys): calabi runs peaked at 72-125 B per pair.
PAIR_BYTES = 128
# compile_recurrence charges each pair the levels below its largest one keep
# at what the plan holds of it (int64 src and slot) and each pair that level
# forms at PLAN_PAIR_BYTES: the pairs formed stand for the rest of what the
# compile and the replay hold (a batch, the replay's weights).  Without
# permutations the estimate is 1.7-1.75x the compile and replay's traced
# peak on I:3,3 at cutoffs 9-11 and IV:6 at 8.  Reduced by permutations,
# the tables of the basis's size are added: the estimate is 1.2-2.0x a
# single verdict's traced peak on I:3,3 at cutoffs 9-12, IV:6 at 8-9 and
# III:3 at 9.
KEPT_PAIR_BYTES = 16
PLAN_PAIR_BYTES = 36
# Labelling the weight components and mapping each position into its orbit
# representative hold about this much per variable and basis position (the
# exponents, reduced and permuted, are int64).
LABEL_BYTES_PER_COORD = 16
# Entry pairs compile_recurrence forms at once.
_BATCH_PAIRS = 2**13


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
        exps = (tuple(hol), tuple(anti))
        if any(len(e) != self.n_vars or min(e) < 0 or sum(e) > self.cutoff for e in exps):
            return 0.0
        j, k = sorted(self.basis.rank(np.array(exps, dtype=np.int64)).tolist())
        lo, hi = np.searchsorted(self.rows, (j, j + 1))
        i = lo + int(np.searchsorted(self.cols[lo:hi], k))
        return float(self.values[i]) if i < hi and self.cols[i] == k else 0.0

    def mirrored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of every entry: the canonical ones, then the
        (k, j) mirrors of the off-diagonal ones."""
        return _mirror(self.rows, self.cols, self.values)

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


def _mirror(rows, cols, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    off = rows != cols
    return (
        np.concatenate((rows, cols[off])),
        np.concatenate((cols, rows[off])),
        np.concatenate((values, values[off])),
    )


def _frozen(n_vars: int, cutoff: int, rows, cols, values) -> HermitianSeries:
    """The series of canonical, sorted, distinct, nonzero entries, read-only."""
    for x in (rows, cols, values):
        x.flags.writeable = False
    return HermitianSeries(n_vars, cutoff, rows, cols, values)


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
    # bincount of nothing is int64
    return _frozen(n_vars, cutoff, rows, cols, np.asarray(sums[nonzero], dtype=np.float64))


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
    degrees = s.basis.degrees
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
    # Keep canonical targets (p <= q) only; the mirrored combinations land on
    # the transposed entry, which Hermitian symmetry makes redundant.  The
    # order is graded, so hol > anti puts every target below the diagonal.
    groups_b = _bidegree_groups(b)
    work = [
        (hol_a + hol_b == anti_a + anti_b, ga, gb)
        for hol_a, anti_a, *ga in _bidegree_groups(a)
        for hol_b, anti_b, *gb in groups_b
        if anti_a + anti_b <= a.cutoff and hol_a + hol_b <= anti_a + anti_b
    ]
    pairs = sum(len(ga[0]) * len(gb[0]) for _, ga, gb in work)
    check_memory(PAIR_BYTES * pairs, f"a series product of {pairs} entry pairs")
    rows, cols, vals = [], [], []
    for diagonal, (ja, ka, va), (jb, kb, vb) in work:
        p = bas.rank(exps[ja][:, None], exps[jb][None, :]).ravel()
        q = bas.rank(exps[ka][:, None], exps[kb][None, :]).ravel()
        w = (va[:, None] * vb[None, :]).ravel()
        if diagonal:
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


def power_sequence(q: HermitianSeries) -> list[HermitianSeries]:
    """[Q, Q^2, ...] until the truncated power vanishes.

    Once a truncated power is identically zero all higher powers are too
    (exponents only grow), so the sequence is complete for any series
    expansion in Q.  At most 2*cutoff+1 powers are formed, which is always
    enough for a Q with zero constant term.
    """
    powers: list[HermitianSeries] = []
    current = q
    for _ in range(2 * q.cutoff + 1):
        if current.is_zero():
            break
        powers.append(current)
        current = product(current, q)
    return powers


def generalized_binomial(lam: float, k: int) -> float:
    """C(lam+k-1, k) by running product: prod_{i=1..k} (lam+i-1)/i."""
    c = 1.0
    for i in range(1, k + 1):
        c *= (lam + i - 1) / i
    return c


def inverse_power(q: HermitianSeries, lam: float) -> HermitianSeries:
    """(1 - Q)^(-lam) - 1 truncated; lam may be any real."""
    if q.constant_term() != 0.0:
        raise ValueError("series must have zero constant term")
    powers = power_sequence(q)
    if not powers:
        return zero(q.n_vars, q.cutoff)
    weights = [generalized_binomial(lam, k) for k in range(1, len(powers) + 1)]
    return linear_combination(powers, weights)


def _norm_terms(n: HermitianSeries) -> tuple[list[tuple], np.ndarray, np.ndarray, np.ndarray]:
    """N's terms (gamma, delta) != 0 in order of degree g: [(g, distinct
    gammas, each term's gamma and delta as rows among them, coefficients)]
    per degree, and every term's -c, g and gamma - delta, after checking that
    N has constant term 1 and only (g, g) entries."""
    degrees = n.basis.degrees
    if n.constant_term() != 1.0 or (degrees[n.rows] != degrees[n.cols]).any():
        raise ValueError("inverse_norm_power needs constant term 1 and only (g, g) entries")
    gamma, delta, coef = (x[1:] for x in n.mirrored())  # x[0] is the constant term
    order = np.argsort(degrees[gamma], kind="stable")
    gamma, delta, coef = gamma[order], delta[order], coef[order]
    g = degrees[gamma]
    # The deltas are the gammas again, as the terms come with their mirrors.
    by_degree = []
    for level_g in np.unique(g).tolist():
        at = g == level_g
        es, gamma_row = np.unique(gamma[at], return_inverse=True)
        by_degree.append((level_g, es, gamma_row, np.searchsorted(es, delta[at]), coef[at]))
    exps = n.basis.exponents
    return by_degree, -coef, g.astype(np.float64), exps[gamma] - exps[delta]


def inverse_norm_power(n: HermitianSeries, lam: float) -> HermitianSeries:
    """N^(-lam) - 1 truncated, for a series N with constant term 1 whose
    entries all sit on bidegrees (g, g); a ValueError for any other N.

    With E the holomorphic Euler operator, f = N^(-lam) solves
    N E f = -lam f E N.  Read off level by level (|alpha| = |beta| = a):

        a f_{alpha beta} = -sum n_{gamma delta} (a - g + lam g) f_{alpha-gamma, beta-delta}

    over N's terms (gamma, delta) != 0 with |gamma| = |delta| = g, so each
    level comes from lower levels and N's few terms in one pass, with no
    powers of 1 - N.  The recurrence is compiled (compile_recurrence) and
    replayed at lam, and the entries that sum to an exact zero are dropped.
    Overflowing coefficients come out as inf or nan, for the caller to refuse.
    """
    plan = compile_recurrence(n)
    return plan.series(plan.values(lam))


@dataclass(frozen=True, eq=False)
class Orbits:
    """The weight components of degrees 1..cutoff grouped into orbits under
    the coordinate permutations generators (each fixes N).  Each orbit is
    represented by its component of least position: positions holds the
    representatives' positions, component after component, each ascending,
    the components in order of least position; sizes and counts give each
    representative's size and its orbit's number of components."""

    generators: tuple[tuple[int, ...], ...]
    positions: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class RecurrencePlan:
    """The recurrence of N^(-lam) with lam left open: its entry pattern and,
    per level, the pairs it sums, in the order it sums them.

    rows and cols are the canonical entries of every level a >= 1, sorted by
    (row, col): the canonical pairs inside the level's weight components that
    represent their orbits (orbits; every component without generators), or
    none if no pair reaches the level.  levels[a - 1] is (coef, g, counts,
    src, slot, size): per term of N of degree g <= a, its -c, g and the
    number of pairs it keeps; pair i, taken term by term, adds its term's
    scale -c (a - g + lam g) times f[src[i]] to the level's sum number
    slot[i] of size, where f is 1 (the constant term) followed by the values
    at rows, cols.  A permutation in orbits.generators maps the coefficients
    of N^(-lam) onto themselves, so those at the entries left out are the
    values at their images.  pairs_formed counts the pairs the compile
    formed, those it kept and those whose target is not canonical.
    """

    n_vars: int
    cutoff: int
    rows: np.ndarray
    cols: np.ndarray
    levels: tuple[tuple, ...]
    orbits: Orbits | None = None
    pairs_formed: int = 0

    def sizes(self) -> dict[str, int]:
        """The basis size m, the entries of N^(-lam) - 1 that the plan
        stands for and those it computes, and the pairs its compile formed
        and those it sums."""
        o = self.orbits
        degrees = basis(self.n_vars, self.cutoff).degrees
        degree = degrees[o.positions[np.cumsum(o.sizes) - o.sizes]]
        filled = np.array([0] + [level[5] for level in self.levels]) > 0
        return {
            "m": len(degrees),
            "entries": int((filled[degree] * o.counts * o.sizes * (o.sizes + 1) // 2).sum()),
            "entries_solved": len(self.rows),
            "pairs_formed": self.pairs_formed,
            "pairs_kept": sum(len(level[3]) for level in self.levels),
        }

    def values(self, lam: float, top: int | None = None) -> np.ndarray:
        """The coefficients of N^(-lam) at rows, cols, exact zeros included:
        each level's products summed in order, then divided by a, so exact
        cancellations stay exact.  Overflow gives inf or nan.  Given top, only
        levels 1..top are replayed, and their values are the leading ones of
        the whole replay, bit for bit."""
        levels = self.levels[:top]
        f = np.empty(1 + sum(level[5] for level in levels))
        f[0] = 1.0
        at = 1
        with np.errstate(over="ignore", invalid="ignore"):  # let inf and nan through
            for a, (coef, g, counts, src, slot, size) in enumerate(levels, 1):
                weights = f[src]
                weights *= np.repeat(coef * (a - g + lam * g), counts)
                f[at : at + size] = np.bincount(slot, weights=weights, minlength=size) / a
                at += size
        return f[1:]

    def series(self, values: np.ndarray) -> HermitianSeries:
        """The series N^(-lam) - 1 of values = self.values(lam), exact zeros dropped."""
        keep = values != 0.0
        return _frozen(self.n_vars, self.cutoff, self.rows[keep], self.cols[keep], values[keep])


def _echelon(rows: np.ndarray) -> list[np.ndarray]:
    """An echelon basis of the integer lattice the rows span: the first
    nonzero entry of each basis row is positive and lies right of the
    previous row's.  Euclid's algorithm on one column at a time."""
    rows = rows[rows.any(axis=1)]
    out = []
    for c in range(rows.shape[1]):
        live = np.flatnonzero(rows[:, c])
        while len(live) > 1:
            k = live[np.argmin(np.abs(rows[live, c]))]
            q = rows[:, c] // rows[k, c]
            q[k] = 0
            rows = rows - q[:, None] * rows[k]
            live = np.flatnonzero(rows[:, c])
        if len(live):
            out.append(rows[live[0]] * np.sign(rows[live[0], c]))
            rows = np.delete(rows, live[0], axis=0)
    return out


def _weight_components(bas: Basis, diffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cosets of the lattice spanned by the rows of diffs, on the basis.
    The rows of diffs sum to 0, so each coset lies in one degree.

    Per position: its coset, numbered in order of least position, and its
    rank there; per coset: its least position and its size; and the
    positions ordered by (coset, position).
    """
    # Reduced by an echelon basis, with 0 <= rep[c] < row[c] at each row's
    # pivot c, two exponent vectors are equal exactly when their cosets are.
    rep = bas.exponents.T.copy()  # one row per variable
    for row in _echelon(diffs):
        nonzero = np.flatnonzero(row).tolist()
        q = rep[nonzero[0]] // row[nonzero[0]]
        for k in nonzero:
            rep[k] -= q * row[k]
    # One int64 key per reduced vector, renumbered densely whenever the next
    # coordinate's span would overflow it; rows all 0 split nothing.
    key = np.zeros(len(bas), dtype=np.int64)
    for coord in rep[rep.any(axis=1)]:
        low, span = int(coord.min()), int(coord.max() - coord.min()) + 1
        if int(key.max()) > (_INT64_MAX - span) // span:
            key = np.unique(key, return_inverse=True)[1]
        key = key * span + (coord - low)
    _, first, coset = np.unique(key, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(len(by_first))
    coset = number[coset]
    size = np.bincount(coset)
    order = np.argsort(coset, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(size) - size, size)
    return coset, rank, first[by_first], size, order


def _labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Per node 0..n-1, the least node of its connected component in the
    graph with edges rows[e] -- cols[e]."""
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


def _orbits(n: HermitianSeries, coset: np.ndarray, first: np.ndarray, generators) -> tuple:
    """The generators that fix N, and per weight component the least
    component of its orbit under them (its representative) and a
    permutation tau of the variables with e[tau] in the representative for
    every exponent vector e of the component (the identity on a
    representative, so on every component if no generator fixes N).

    A generator g takes a component X onto g X, whose vectors f come from
    X's as f = e[g], so f[argsort(g)[tau_X]] lies in X's representative.
    Each generator has finite order, so following them forward reaches a
    whole orbit: every component takes the least representative and its
    tau from the components that map onto it until none improves."""
    bas, count = n.basis, len(first)
    lead, tau = np.arange(count), np.tile(np.arange(n.n_vars), (count, 1))
    perms = [tuple(int(i) for i in g) for g in generators if sorted(g) == list(range(n.n_vars))]
    if not perms:
        return (), lead, tau
    # One ranking for every permutation: N's entries, and each component's least position.
    at = np.concatenate((n.rows, n.cols, first))
    moved = bas.rank(bas.exponents[at][:, perms]).T
    used, maps = [], []
    for g, pos in zip(perms, moved):
        p, q = np.split(pos[: 2 * len(n.rows)], 2)
        key = np.minimum(p, q) * len(bas) + np.maximum(p, q)  # N's entries, permuted
        order = np.argsort(key)
        if np.array_equal(key[order], n.rows * len(bas) + n.cols) and (
            np.array_equal(n.values[order], n.values)
        ):
            used.append(g)
            maps.append(coset[pos[2 * len(n.rows) :]])
    inverses = [np.argsort(g) for g in used]
    while True:
        changed = False
        for image, inverse in zip(maps, inverses):
            x = np.flatnonzero(lead < lead[image])
            y = image[x]  # where several x share a y, the last one's lead and tau go together
            lead[y], tau[y] = lead[x], inverse[tau[x]]
            changed |= len(x) > 0
        if not changed:
            return tuple(used), lead, tau


def _schedule(bas: Basis, by_degree, shifts, diffs, coset, first, size, rep) -> tuple[list, list]:
    """Per level a = 1..cutoff of compile_recurrence, before any is built:
    (pairs formed, pairs kept), where a pair is formed when its target lies
    in a representative (rep, per component; every one without
    permutations) and kept when that target is canonical; shifts are
    compile_recurrence's rank tables.  Also, per degree g of N's terms, the
    cells formed: [term, source component S] -> the component of S + gamma
    is a representative, for the components of degree <= cutoff - g.  Both
    are counted per term and source component.

    A level that some pair reaches has every pair (p, q) in its components as
    an entry, mirrors included: |S|^2 for a component S.  A term (gamma,
    delta) of degree g pairs each entry (alpha, beta) of such an S at level
    a - g with (alpha + gamma, beta + delta), all in the component of
    S + gamma; (delta, gamma) is a term too, pairing (beta, alpha) with the
    transposed target in the same component.  So of those two pairs one has a
    canonical target, both when alpha + gamma = beta + delta, which happens
    for the alphas of S at or above u = (delta - gamma)^+: as many as the
    positions of the component S - u, if there is one.
    """
    cutoff, degrees, exps = bas.max_degree, bas.degrees, bas.exponents
    level = degrees[first]  # components are numbered by least position, so by degree
    begin = np.searchsorted(degrees, np.arange(cutoff + 2))
    reached = np.zeros(cutoff + 1, dtype=bool)
    reached[0] = True
    for a in range(1, cutoff + 1):
        reached[a] = any(reached[a - g] for g, *_ in by_degree if g <= a)
    entries = np.where(reached[level], size * size, 0)
    forms, kept = np.zeros(cutoff + 1, dtype=np.int64), np.zeros(cutoff + 1, dtype=np.int64)
    done, cells = 0, []
    for (g, _, gamma_row, _, c), shift in zip(by_degree, shifts):
        u, done = np.maximum(-diffs[done : done + len(c)], 0), done + len(c)
        sources = np.searchsorted(level, cutoff - g, side="right")  # components of degree <= cutoff - g
        heads, at = first[:sources], level[:sources] + g
        target = coset[shift[:, heads]]  # the component of S + gamma
        # [term, S]: the size of the component X with X + u in S, from
        # first(X) + u for the components X of degree <= cutoff - g; all of S
        # when u = 0.
        diagonal = size[:sources]
        if u.any():
            us, u_row = np.unique(bas.rank(u), return_inverse=True)
            pos = bas.rank(exps[heads], exps[us][:, None])
            diagonal = np.zeros((len(us), sources), dtype=np.int64)
            row, x = np.nonzero(pos < begin[cutoff - g + 1])
            diagonal[row, coset[pos[row, x]]] = size[x]
            diagonal = diagonal[u_row.ravel()]
        formed = rep[target[gamma_row]]  # per term and source component
        cells.append(formed)
        forms += np.bincount(at, (formed * entries[:sources]).sum(axis=0), cutoff + 1).astype(np.int64)
        both = formed * (entries[:sources] + diagonal * reached[level[:sources]])
        kept += np.bincount(at, both.sum(axis=0), cutoff + 1).astype(np.int64)
    return [(int(f), int(k) // 2) for f, k in zip(forms[1:], kept[1:])], cells


def compile_recurrence(n: HermitianSeries, generators: Iterable = ()) -> RecurrencePlan:
    """The RecurrencePlan of N^(-lam) for a series N with constant term 1
    whose entries all sit on bidegrees (g, g); a ValueError for any other N.
    generators are coordinate permutations (tuples as domains.symmetries
    gives them); those that fix N reduce the plan to the orbit
    representatives of its weight components, and the others are ignored.

    A term (gamma, delta) maps an entry (alpha, beta) to (alpha + gamma,
    beta + delta), so the two sides of every entry differ by a sum of N's
    gamma - delta: both lie in one weight component (_weight_components).
    A level that some pair reaches takes as entries every canonical pair
    (p, q) inside its components, in (p, q) order; on the catalog's norms
    those are exactly the pairs reached, and any other is an exact zero.  So
    the sum a pair feeds is arithmetic in the ranks of p and q within their
    component, with no sort, and every level's pair counts are known before
    any is built (_schedule): the memory guard is charged once, and each
    level fills arrays of its scheduled size, raising if it forms or keeps a
    different count.  Labelling the components and mapping positions into
    their representatives take memory of the basis's size, so until they run
    the charge is theirs, from the basis size alone, and they run only if it
    fits.  Graded-lex order is translation invariant, so a term maps the
    positions of a level to sorted positions of a higher one: one rank table
    per degree of N's terms, over the distinct gammas and every source
    level, turns the target positions into gathers.

    A term pairs only with the components S whose S + gamma is a
    representative (the schedule's cells), about _BATCH_PAIRS pairs at a
    time: row x of S meets the positions y of S, and as the term's images of
    the ys increase along the row, its canonical targets (p <= q) are those
    from the first image at or past x's on, found by one binary search per
    row, so no pair that the plan does not keep is built.  A kept pair reads
    f at the canonical pair of the images of x and y in their
    representative, where a permutation of the variables per component
    (_orbits) maps them.
    """
    bas = n.basis
    exps, degrees = bas.exponents, bas.degrees
    start = np.searchsorted(degrees, np.arange(n.cutoff + 2))  # each degree's first position
    # The tables of the basis's size: the labels, each position's image in
    # its representative, and per degree g of N's terms the rank table of
    # alpha + gamma over its distinct gammas and the alphas of degree <= cutoff - g.
    gammas = np.unique(np.concatenate((n.rows[1:], n.cols[1:])))
    per_degree = np.bincount(degrees[gammas], minlength=n.cutoff + 1)
    tables = 8 * int(per_degree @ start[n.cutoff + 1 :: -1][: n.cutoff + 1])
    need = LABEL_BYTES_PER_COORD * n.n_vars * len(bas) + tables
    what = f"the component and rank tables of {len(bas)} positions in {n.n_vars} variables"
    if need <= multiindex.MEMORY_LIMIT_BYTES:
        # -c, g and gamma - delta of every term; the terms of degree <= a are a prefix.
        by_degree, coef, g, diffs = _norm_terms(n)
        coset, rank, first, sizes, order = _weight_components(bas, diffs)
        generators, lead, tau = _orbits(n, coset, first, generators)
        represents = lead == np.arange(len(first))
        # Per degree g of N's terms: [row of gamma, position of alpha] -> position
        # of alpha + gamma, for every alpha of degree <= cutoff - g.
        shifts = [
            bas.rank(exps[: start[n.cutoff - level_g + 1]], exps[es][:, None])
            for level_g, es, *_ in by_degree
        ]
        schedule, cells = _schedule(bas, by_degree, shifts, diffs, coset, first, sizes, represents)
        # One charge, before any level is built: the level that needs the most,
        # holding what the levels below it keep while it forms its pairs, and,
        # reduced, the tables of the basis's size too.
        charges, before = [], 0
        for a, (forms, kept) in enumerate(schedule, 1):
            plan_need = KEPT_PAIR_BYTES * before + PLAN_PAIR_BYTES * forms + (need if generators else 0)
            charges.append((plan_need, a, forms, before))
            before += kept
        plan_need, a, forms, before = max(charges, key=lambda c: c[0], default=(0, 0, 0, 0))
        if plan_need >= need:
            need, what = plan_need, f"a recurrence plan's level {a} ({forms} pairs formed, {before} kept)"
    check_memory(need, what)
    reached = np.array([True] + [forms > 0 for forms, _ in schedule])
    rep, width = represents[coset], sizes[coset]  # per position
    positions = order[rep[order]][1:]  # the representatives', less the constant term
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))  # each position's index in order
    # The plan's entries: row p holds the canonical pairs (p, q) of its
    # component on a level that some pair reaches, if the component is a
    # representative, q running over the component's positions from p on.
    # Entry (p, q) is number base[p] + rank[q] of its level and f's
    # fhead[p] + rank[q], after f[0], the constant term.
    count = (width - rank) * (rep & reached[degrees])
    count[0] = 0
    row_first = np.cumsum(count) - count
    rows = np.repeat(np.arange(len(bas)), count)
    cols = order[np.repeat(inv - row_first, count) + np.arange(len(rows))]
    level_first = np.append(row_first[start[:-1]], len(rows))
    base = row_first - level_first[degrees] - rank
    fhead = row_first - rank + 1
    fhead[0] = 0
    # Each source position's image in its representative.
    lowest = by_degree[0][0] if by_degree else n.cutoff + 1
    sources = start[max(0, n.cutoff - lowest + 1)]
    image = np.arange(len(bas))
    moved = np.flatnonzero(~rep[:sources])
    image[moved] = bas.rank(np.take_along_axis(exps[moved], tau[coset[moved]], axis=1))
    # Level a keeps its pairs term by term in slot[kept_at[a]:] and src, the
    # terms in order of degree; per level, the pairs formed and kept so far.
    level_kept = np.array([0] + [kept for _, kept in schedule])
    kept_at = np.cumsum(level_kept) - level_kept
    slot, src = (np.empty(int(level_kept.sum()), dtype=np.int64) for _ in range(2))
    formed, filled = np.zeros(n.cutoff + 1, dtype=np.int64), np.zeros(n.cutoff + 1, dtype=np.int64)

    def keep(a, pair_slot, pair_src):
        """Level a's next kept pairs."""
        if filled[a] + len(pair_slot) <= level_kept[a]:  # else the count check below raises
            at = kept_at[a] + filled[a]
            slot[at : at + len(pair_slot)], src[at : at + len(pair_slot)] = pair_slot, pair_src
        filled[a] += len(pair_slot)

    per_term = []  # per degree of N's terms: [level, term] -> pairs kept
    for (level_g, _, gamma_row, delta_row, c), table, mask in zip(by_degree, shifts, cells):
        counts = np.zeros((n.cutoff + 1, len(c)))
        levels = np.flatnonzero(reached[: n.cutoff - level_g + 1]).tolist()
        # The rows (term, source position) of the cells formed, by source
        # level, then term, then position in order.
        terms, at = [], []
        for s in levels:
            level_at = order[start[s] : start[s + 1]]
            t, u = np.divmod(np.flatnonzero(mask[:, coset[level_at]]), len(level_at))
            terms.append(t)
            at.append(level_at[u])
        term, at = np.concatenate(terms), np.concatenate(at)
        level_end = np.cumsum([len(t) for t in terms]).tolist()
        flat, row_g, row_d = table.ravel(), gamma_row * table.shape[1], delta_row * table.shape[1]
        # A batch ends before the cell that forms the next multiple of
        # _BATCH_PAIRS pairs, a row of S forming |S| of them.
        formed_to = np.cumsum(width[at])
        total = formed_to[-1] if len(at) else 0
        cuts = np.searchsorted(formed_to, np.arange(_BATCH_PAIRS, total, _BATCH_PAIRS))
        cuts = (cuts - rank[at[cuts]]).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(at)]):
            if lo == hi:
                continue
            t, pos = term[lo:hi], at[lo:hi]
            x, w = rank[pos], width[pos]
            p, q = flat[row_g[t] + pos], flat[row_d[t] + pos]  # the term's images of x, and of y
            # q increases along a cell (graded-lex order is translation
            # invariant), so a row's canonical targets (p <= q) are the qs of
            # its cell from the first q >= p on.
            cell = np.arange(hi - lo) - x  # the row of the cell's first position
            first_q = np.searchsorted(q + cell * len(bas), p + cell * len(bas))
            n_kept = cell + w - first_q
            kept_to = np.concatenate(([0], np.cumsum(n_kept)))
            row = np.repeat(np.arange(hi - lo), n_kept)  # each kept pair's row
            k = (first_q - kept_to[:-1])[row]
            k += np.arange(len(row))  # and its y's row
            pair_slot = base[p][row]
            pair_slot += rank[q][k]
            i, j = image[pos][row], image[pos][k]  # x and y in their representative
            pair_src = fhead[np.minimum(i, j)]
            pair_src += rank[np.maximum(i, j)]
            for s, r0, r1 in zip(levels, [0, *level_end], level_end):
                r0, r1 = max(lo, r0) - lo, min(hi, r1) - lo
                if r0 < r1:  # rows that read level s
                    formed[s + level_g] += w[r0:r1].sum()
                    counts[s + level_g] += np.bincount(t[r0:r1], n_kept[r0:r1], len(c))
                    k0, k1 = kept_to[r0], kept_to[r1]
                    keep(s + level_g, pair_slot[k0:k1], pair_src[k0:k1])
        per_term.append(counts.astype(np.int64))
    plan, empty = [], np.zeros(0, dtype=np.int64)
    for a, (forms, kept) in enumerate(schedule, 1):
        if formed[a] != forms:
            raise RuntimeError(f"level {a} formed {formed[a]} pairs, not the {forms} scheduled")
        if filled[a] != kept:
            raise RuntimeError(f"level {a} kept {filled[a]} pairs, not the {kept} scheduled")
        counts = [m[a] for (level_g, *_), m in zip(by_degree, per_term) if level_g <= a]
        counts = np.concatenate([empty, *counts])
        pairs = slice(kept_at[a], kept_at[a] + kept)
        size = int(level_first[a + 1] - level_first[a])
        plan.append((coef[: len(counts)], g[: len(counts)], counts, src[pairs], slot[pairs], size))
    reps = np.flatnonzero(represents)[1:]  # [0] is the constant term's component
    orbits = Orbits(generators, positions, sizes[reps], np.bincount(lead, minlength=len(lead))[reps])
    return RecurrencePlan(n.n_vars, n.cutoff, rows, cols, tuple(plan), orbits, int(formed.sum()))


def embed(series: HermitianSeries, n_vars: int, cutoff: int | None = None) -> HermitianSeries:
    """The same kernel in n_vars >= series.n_vars variables (new trailing
    variables unused), at cutoff if given: terms above it drop, none appear."""
    if n_vars < series.n_vars:
        raise ValueError("cannot embed into fewer variables")
    cutoff = series.cutoff if cutoff is None else cutoff
    exps = series.basis.exponents
    pad = np.zeros((len(exps), n_vars - series.n_vars), dtype=np.int64)
    pos = basis(n_vars, cutoff).rank(np.hstack((exps, pad)))
    return from_entries(n_vars, cutoff, pos[series.rows], pos[series.cols], series.values)


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
