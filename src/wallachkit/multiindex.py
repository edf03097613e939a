"""Graded enumeration and arithmetic of monomial multi-indices.

A multi-index is a tuple of nonnegative integer exponents, one per complex
variable.  Enumeration is graded: indices are listed by total degree, the
zero index first, and ties within a degree are broken lexicographically with
the first variable most significant (so for two variables the degree-1 run
is (1,0), (0,1)).  The order is deterministic, which keeps coefficient
matrices and golden files stable.

Positions follow in closed form from the combinatorial number system, so
:meth:`Basis.rank` ranks whole arrays of exponent vectors (for instance the
exponent sums of index pairs) without any lookup table.  A :class:`Basis`
is numpy arrays; a :class:`MultiIndex` is a view of one of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)

# Arrays sized from a call's inputs (a basis, the entry pairs of a series
# product, the Einstein probe's norm jet) may take at most this much memory.
MEMORY_LIMIT_BYTES = 2 * 1024**3


class MemoryLimitError(ValueError):
    """An array sized from the inputs would exceed MEMORY_LIMIT_BYTES."""


def check_memory(need_bytes: int, what: str) -> None:
    """Refuse, before it is allocated, work estimated at need_bytes."""
    if need_bytes > MEMORY_LIMIT_BYTES:
        raise MemoryLimitError(
            f"{what} needs about {need_bytes / 1e9:.1f} GB, over the "
            f"{MEMORY_LIMIT_BYTES / 1e9:.1f} GB limit"
        )


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple of a monomial, with its total degree cached."""

    exponents: tuple[int, ...]
    degree: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.exponents:
            raise ValueError("multi-index needs at least one variable")
        if any(e < 0 or int(e) != e for e in self.exponents):
            raise ValueError(f"exponents must be nonnegative integers: {self.exponents}")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        object.__setattr__(self, "degree", sum(self.exponents))

    @property
    def n_vars(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def __repr__(self) -> str:
        return f"MultiIndex{self.exponents}"


def index_sum(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise sum (the exponent of a monomial product)."""
    if a.n_vars != b.n_vars:
        raise ValueError(f"variable count mismatch: {a.n_vars} vs {b.n_vars}")
    return MultiIndex(tuple(x + y for x, y in zip(a.exponents, b.exponents)))


def enumerate_indices(n_vars: int, max_degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of degree <= max_degree in graded order.

    The zero index comes first; degrees never decrease along the list; within
    a degree the order is lexicographic with the first variable most
    significant.  max_degree < 0 is clamped to the singleton zero index.
    """
    return tuple(basis(n_vars, max_degree))


class Basis:
    """The multi-indices of degree <= max_degree in graded order, as arrays.

    exponents is the read-only (len, n_vars) int64 matrix of exponent
    vectors and degrees the read-only array of their total degrees.
    Positions come from rank; indexing and iteration yield MultiIndex views.
    """

    def __init__(self, n_vars: int, max_degree: int):
        if n_vars < 1:
            raise ValueError("n_vars must be >= 1")
        self.n_vars = n_vars
        self.max_degree = max(0, int(max_degree))
        # The int64 exponent table and its degrees are filled in place.
        size = comb(self.max_degree + n_vars, n_vars)
        what = f"the degree-{self.max_degree} basis in {n_vars} variables"
        check_memory(8 * (n_vars + 1) * size, what)
        table = np.zeros((size, n_vars), dtype=np.int64)
        ends = [comb(k + n_vars, n_vars) for k in range(self.max_degree + 1)]
        # Recursion on the first variable, from the last one forward.  The
        # degree-k run in the last m variables, R(m, k), ends degree k's rows
        # (the first n_vars - m variables are 0 there), and R(m + 1, k) is e
        # prepended to R(m, k - e) for e = k..0; the e = 0 part is R(m, k) itself.
        table[np.array(ends) - 1, -1] = range(self.max_degree + 1)
        for m in range(1, n_vars):
            for k in range(self.max_degree + 1):
                row = ends[k] - comb(k + m, m)  # first row of R(m + 1, k)
                for e in range(k, 0, -1):
                    count = comb(k - e + m - 1, m - 1)
                    src = ends[k - e] - count
                    table[row : row + count, -m:] = table[src : src + count, -m:]
                    table[row : row + count, -m - 1] = e
                    row += count
        self.exponents = table
        self.degrees = np.repeat(np.arange(self.max_degree + 1), np.diff([0] + ends))
        self.exponents.flags.writeable = False
        self.degrees.flags.writeable = False

    def __len__(self) -> int:
        return len(self.exponents)

    def __getitem__(self, i: int) -> MultiIndex:
        return MultiIndex(tuple(self.exponents[i].tolist()))

    def __iter__(self) -> Iterator[MultiIndex]:
        return (MultiIndex(tuple(row)) for row in self.exponents.tolist())

    def position(self, mi: MultiIndex | tuple[int, ...]) -> int:
        """Position of a multi-index in the enumeration; KeyError if absent."""
        pos = self.position_or_none(mi)
        if pos is None:
            raise KeyError(mi)
        return pos

    def position_or_none(self, exponents: MultiIndex | tuple[int, ...]) -> int | None:
        """Position of an exponent vector, or None if it is not in the basis."""
        exps = np.asarray(tuple(exponents), dtype=np.int64)
        if exps.shape != (self.n_vars,) or exps.min() < 0 or exps.sum() > self.max_degree:
            return None
        return int(self.rank(exps))

    def rank(self, *terms: np.ndarray) -> np.ndarray:
        """Graded-order positions of the exponent vectors along the last axis.

        The vectors are the sum of the terms, which broadcast against each
        other; the sum itself is never formed, so ranking all the sums
        a[:, None] + b[None, :] takes arrays of the pair count, not n times it.
        Vectorised: with t_k the sum of the exponents from variable k on, the
        position is C(t_0 - 1 + n, n) (the indices of lower degree) plus
        sum_{k >= 1} C(t_k + n - k - 1, n - k) (the indices of the same degree
        that come first).  A vector of degree above max_degree gets its
        position in the untruncated enumeration, which is >= len(self); a
        ValueError says when such a position does not fit in int64.
        """
        terms = [np.asarray(t, dtype=np.int64) for t in terms]
        n = self.n_vars
        for t in terms:
            if t.shape[-1:] != (n,):
                raise ValueError(f"expected exponent vectors of length {n}, got shape {t.shape}")
        tail = sum(t.sum(axis=-1) for t in terms)  # t_0, then t_1, ... in place
        top = int(np.max(tail, initial=0))
        # Every position is below C(top + n, n), the count of degree <= top.
        if comb(top + n, n) > _INT64_MAX:
            raise ValueError(
                f"{self!r}: positions of degree {top} in {n} variables do not fit in int64"
            )
        table = _rank_table(n, top)
        pos = np.zeros_like(tail)
        for k in range(n):
            pos += table[tail, n - k]
            for t in terms:
                tail -= t[..., k]
        return pos

    def degree_slice(self, degree: int) -> slice:
        """Positions of all indices of the given total degree."""
        if degree < 0 or degree > self.max_degree:
            return slice(0, 0)
        # The enumeration is graded: C(d - 1 + n, n) indices have degree < d.
        n = self.n_vars
        return slice(comb(degree - 1 + n, n), comb(degree + n, n))

    def __repr__(self) -> str:
        return f"Basis(n_vars={self.n_vars}, max_degree={self.max_degree}, size={len(self)})"


# One rank table per variable count, grown by doubling as tops rise, so a
# recurrence that ranks one level higher at a time builds O(log cutoff) tables.
_RANK_TABLE_CACHE: dict[int, np.ndarray] = {}


def _rank_table(n_vars: int, top: int) -> np.ndarray:
    """C(t + m - 1, m), the count of degree < t in m variables, at [t, m]
    (column 0 unused) for every t <= top at least; rank checks beforehand
    that C(top + n_vars, n_vars) fits in int64."""
    table = _RANK_TABLE_CACHE.get(n_vars)
    if table is None or len(table) <= top:
        # Double (from 16), but back off toward top while the entries overflow.
        size = max(top, 2 * (0 if table is None else len(table) - 1), 16)
        while size > top and comb(size + n_vars - 1, n_vars) > _INT64_MAX:
            size = (size + top) // 2
        table = _RANK_TABLE_CACHE[n_vars] = _build_rank_table(n_vars, size)
    return table


def _build_rank_table(n_vars: int, max_tail: int) -> np.ndarray:
    table = np.zeros((max_tail + 1, n_vars + 1), dtype=np.int64)
    for t in range(1, max_tail + 1):
        table[t, 1:] = [comb(t + m - 1, m) for m in range(1, n_vars + 1)]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def basis(n_vars: int, max_degree: int) -> Basis:
    """Shared cached Basis for (n_vars, max_degree)."""
    return Basis(n_vars, max_degree)
