"""Graded enumeration and arithmetic of monomial multi-indices.

A multi-index is a tuple of nonnegative integer exponents, one per complex
variable.  Enumeration is graded: indices are listed by total degree, the
zero index first, and ties within a degree are broken lexicographically with
the first variable most significant (so for two variables the degree-1 run
is (1,0), (0,1)).  The order is deterministic, which keeps coefficient
matrices and golden files stable.

Positions follow in closed form from the combinatorial number system, so
:meth:`Basis.rank` ranks whole arrays of exponent vectors (for instance the
exponent sums of index pairs) without any lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

import numpy as np


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


def _indices_of_degree(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    # Stars and bars: choose positions of the bars among degree + n_vars - 1 slots.
    if degree == 0:
        return [(0,) * n_vars]
    out = []
    for bars in combinations_with_replacement(range(n_vars), degree):
        exps = [0] * n_vars
        for v in bars:
            exps[v] += 1
        out.append(tuple(exps))
    # Descending lex = first variable most significant, largest first.
    out.sort(key=lambda t: tuple(-e for e in t))
    return out


def enumerate_indices(n_vars: int, max_degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices of degree <= max_degree in graded order.

    The zero index comes first; degrees never decrease along the list; within
    a degree the order is lexicographic with the first variable most
    significant.  max_degree < 0 is clamped to the singleton zero index.
    """
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    max_degree = max(0, int(max_degree))
    flat: list[tuple[int, ...]] = []
    for deg in range(max_degree + 1):
        flat.extend(_indices_of_degree(n_vars, deg))
    return tuple(MultiIndex(t) for t in flat)


class Basis:
    """An enumeration of multi-indices with O(1) position lookup.

    Built once and shared; immutable, so safe across parallel workers.
    """

    def __init__(self, n_vars: int, max_degree: int):
        self.n_vars = n_vars
        self.max_degree = max(0, int(max_degree))
        self.indices = enumerate_indices(n_vars, max_degree)
        self._pos = {mi.exponents: i for i, mi in enumerate(self.indices)}
        self.degrees = tuple(mi.degree for mi in self.indices)
        self.exponents = np.array([mi.exponents for mi in self.indices], dtype=np.int64)
        self.exponents.flags.writeable = False

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> MultiIndex:
        return self.indices[i]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def position(self, mi: MultiIndex | tuple[int, ...]) -> int:
        """Position of a multi-index in the enumeration; KeyError if absent."""
        key = mi.exponents if isinstance(mi, MultiIndex) else tuple(mi)
        return self._pos[key]

    def position_or_none(self, exponents: tuple[int, ...]) -> int | None:
        return self._pos.get(exponents)

    def rank(self, exponents: np.ndarray) -> np.ndarray:
        """Graded-order positions of the exponent vectors along the last axis.

        Vectorised: with t_k the sum of the exponents from variable k on, the
        position is C(t_0 - 1 + n, n) (the indices of lower degree) plus
        sum_{k >= 1} C(t_k + n - k - 1, n - k) (the indices of the same degree
        that come first).  A vector of degree above max_degree gets its
        position in the untruncated enumeration, which is >= len(self).
        """
        exps = np.asarray(exponents, dtype=np.int64)
        n = self.n_vars
        if exps.shape[-1:] != (n,):
            raise ValueError(f"expected exponent vectors of length {n}, got shape {exps.shape}")
        tails = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]
        pascal = _pascal(int(tails[..., 0].max(initial=0)) + n)
        pos = pascal[tails[..., 0] + n - 1, n]
        for k in range(1, n):
            pos = pos + pascal[tails[..., k] + n - k - 1, n - k]
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
def _pascal(size: int) -> np.ndarray:
    """C(a, b) for 0 <= a, b <= size."""
    table = np.zeros((size + 1, size + 1), dtype=np.int64)
    for a in range(size + 1):
        table[a, : a + 1] = [comb(a, b) for b in range(a + 1)]
    return table


@lru_cache(maxsize=None)
def basis(n_vars: int, max_degree: int) -> Basis:
    """Shared cached Basis for (n_vars, max_degree)."""
    return Basis(n_vars, max_degree)
