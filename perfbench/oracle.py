"""Independent oracles for the benchmark's verdicts.

Nothing here calls into wallachkit: the catalog constants are restated from
the standard Jordan-triple data, scales are exact fractions, and the generic
norm used to re-check Gram witnesses is evaluated from its definition.  A
verdict counts as agreeing only when it matches these oracles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SPEC_RE = re.compile(r"^(I|III|IV|CH):(\d+(?:,\d+)*)$")
_CHD_RE = re.compile(r"^CHD\(([^;]+);mu=([^)]+)\)$")


@dataclass(frozen=True)
class Invariants:
    kind: str
    params: tuple[int, ...]
    d: int  # complex dimension
    r: int  # rank
    a: Fraction
    gamma: int  # genus

    @property
    def threshold(self) -> Fraction:
        """(r-1)a/2: the last discrete Wallach point and the continuum start."""
        return (self.r - 1) * self.a / 2

    @property
    def discrete(self) -> tuple[Fraction, ...]:
        return tuple(j * self.a / 2 for j in range(self.r))


def invariants(spec: str) -> Invariants:
    """Catalog constants of "I:p,q" | "III:n" | "IV:n" | "CH:d"."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"bad domain spec {spec!r}")
    kind = m.group(1)
    params = tuple(int(t) for t in m.group(2).split(","))
    if kind == "I":
        p, q = params
        return Invariants(kind, params, p * q, p, Fraction(2), p + q)
    if kind == "III":
        (n,) = params
        return Invariants(kind, params, n * (n + 1) // 2, n, Fraction(1), n + 1)
    if kind == "IV":
        (n,) = params
        return Invariants(kind, params, n, 2, Fraction(n - 2), n)
    (d,) = params
    return Invariants(kind, params, d, 1, Fraction(2), d + 1)


def wallach_member(spec: str, lam: Fraction) -> bool:
    """lam in {0, a/2, ..., (r-1)a/2} or lam > (r-1)a/2, in exact arithmetic."""
    inv = invariants(spec)
    return lam > inv.threshold or lam in inv.discrete


def parse_chd(chspec: str) -> tuple[str, Fraction]:
    """(base spec, exact mu) of "CHD(<base>;mu=<decimal|einstein>)"."""
    m = _CHD_RE.match(chspec)
    if not m:
        raise ValueError(f"bad Hartogs spec {chspec!r}")
    base, token = m.group(1), m.group(2)
    if token == "einstein":
        inv = invariants(base)
        return base, Fraction(inv.gamma, inv.d + 1)
    return base, Fraction(token)


def ch_induced(chspec: str, c: Fraction) -> bool:
    """Closed form for c g(mu): mu(c+m) in W minus {0} for all integers m >= 0.

    Every mu(c+m) at or below the threshold must be one of the r-1 positive
    discrete points, and the sequence increases, so at most r values are
    ever examined.
    """
    base, mu = parse_chd(chspec)
    inv = invariants(base)
    positive = inv.discrete[1:]
    m = 0
    while mu * (c + m) <= inv.threshold:
        if mu * (c + m) not in positive:
            return False
        m += 1
    return True


def einstein_constant(chspec: str) -> int:
    """Ric = k g on an Einstein extension with k = -(d+2), d the base dimension."""
    base, _ = parse_chd(chspec)
    return -(invariants(base).d + 2)


def residual_bound(chspec: str) -> float:
    """Criterion 6's residual bound: 1e-5 over a ball base, 1e-4 otherwise."""
    base, _ = parse_chd(chspec)
    return 1e-5 if invariants(base).kind == "CH" else 1e-4


K_REL_TOL = 1e-4


def _matrix(inv: Invariants, x: np.ndarray) -> np.ndarray:
    if inv.kind == "I":
        return x.reshape(inv.params)
    (n,) = inv.params
    z = np.zeros((n, n), dtype=np.complex128)
    z[np.triu_indices(n)] = x  # upper triangle, row-major
    return z + np.triu(z, 1).T


def generic_norm(spec: str, x: np.ndarray, y: np.ndarray) -> complex:
    """N(x, ybar) from its definition on each domain kind."""
    inv = invariants(spec)
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if inv.kind == "I":
        zx, zy = _matrix(inv, x), _matrix(inv, y)
        return complex(np.linalg.det(np.eye(inv.r) - zx @ zy.conj().T))
    if inv.kind == "III":
        zx, zy = _matrix(inv, x), _matrix(inv, y)
        return complex(np.linalg.det(np.eye(inv.r) - zx @ zy.conj()))
    yb = y.conj()
    if inv.kind == "IV":
        return complex(1 - 2 * (x @ yb) + (x @ x) * (yb @ yb))
    return complex(1 - x @ yb)


def gram_min_eigenvalue(spec: str, lam: float, points: list[np.ndarray]) -> float:
    """Smallest eigenvalue of [N(x_a, x_b)^(-lam)] by the principal branch."""
    n = len(points)
    h = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            h[i, j] = generic_norm(spec, points[i], points[j]) ** (-lam)
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])
