"""Graded enumeration and ranking of monomial multi-indices.

A multi-index is a tuple of nonnegative integer exponents, one per complex
variable.  Enumeration is graded: indices are listed by total degree, the
zero index first, and ties within a degree are broken lexicographically with
the first variable most significant (so for two variables the degree-1 run
is (1,0), (0,1)).  The order is deterministic, which keeps coefficient
matrices and golden files stable.

Positions follow in closed form from the combinatorial number system, so
:meth:`Basis.rank` ranks whole arrays of exponent vectors (for instance the
exponent sums of index pairs) without any lookup table.  A :class:`Basis`
is numpy arrays, one exponent row per multi-index.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)

# Arrays sized from a call's inputs (a basis, the entry pairs of a product or
# a recurrence plan, the Einstein probe's norm jet) may take at most this much.
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


class Basis:
    """The multi-indices of degree <= max_degree in graded order, as arrays.

    exponents is the read-only (len, n_vars) int64 matrix of exponent
    vectors and degrees the read-only array of their total degrees.
    Positions come from rank.
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
        count = _rank_table(n, top).T  # count[m][t]: a gather per variable
        pos = np.zeros_like(tail)
        for k in range(n):
            pos += count[n - k][tail]
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


@lru_cache(maxsize=None)
def _rank_table(n_vars: int, top: int) -> np.ndarray:
    """C(t + m - 1, m), the count of degree < t in m variables, at [t, m]
    (column 0 unused) for every t <= top; rank checks beforehand that
    C(top + n_vars, n_vars) fits in int64."""
    table = np.zeros((top + 1, n_vars + 1), dtype=np.int64)
    for t in range(1, top + 1):
        table[t, 1:] = [comb(t + m - 1, m) for m in range(1, n_vars + 1)]
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def basis(n_vars: int, max_degree: int) -> Basis:
    """Shared cached Basis for (n_vars, max_degree)."""
    return Basis(n_vars, max_degree)
