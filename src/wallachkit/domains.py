"""Catalog of classical irreducible bounded symmetric domains.

Each :class:`DomainModel` carries the numerical invariants (complex dimension
d, rank r, the positive invariant a, genus gamma), the generic norm N both as
an exact polynomial kernel (a :class:`~wallachkit.series.HermitianSeries`) and
as a direct two-point evaluator, plus membership, sampling, and the
closed-form Wallach set

    W = {0, a/2, ..., (r-1)a/2}  union  ((r-1)a/2, infinity).

Supported kinds and their conventions:

  TypeI(p, q), p <= q   p x q complex matrices Z with ||Z||_op < 1, flattened
                        row-major; N(Z, W) = det(I_p - Z W*).
  TypeIII(n)            symmetric n x n matrices; coordinates are the upper
                        triangle flattened row-major; N(Z, W) = det(I - Z Wbar).
  TypeIV(n), n >= 3     the Lie ball in C^n;
                        N(z, w) = 1 - 2<z, wbar> + (z.z)(wbar.wbar).
  CH(d)                 the complex hyperbolic ball, alias of TypeI(1, d);
                        N(z, w) = 1 - sum z_i wbar_i.

The invariants are stored as catalog constants (standard Jordan-triple data);
validate_catalog() guards them by cross-checking the closed-form Wallach
membership against the truncated positivity verdict on a lambda grid.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import series as hs
from .series import HermitianSeries

_SAMPLE_RETRIES = 64

# Absolute snap tolerance for membership in the discrete Wallach list.
WALLACH_SNAP_TOL = 1e-12


class CatalogInconsistencyError(Exception):
    """Closed-form Wallach membership disagreed with the truncated verdict."""


class SamplingError(Exception):
    """Domain sampling failed to produce an interior point within budget."""


@dataclass(frozen=True)
class WallachSet:
    discrete: tuple[float, ...]
    continuous_from: float  # open lower endpoint of the half-line


@dataclass(frozen=True)
class DomainModel:
    kind: str                 # "I" | "III" | "IV" | "CH"
    params: tuple[int, ...]
    d: int                    # complex dimension
    r: int                    # rank
    a: float
    gamma: int                # genus
    # exact polynomial N, cutoff = its degree; a function of kind and params
    norm_poly: HermitianSeries = field(compare=False)

    @property
    def spec_string(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __repr__(self) -> str:
        return (
            f"DomainModel({self.spec_string}, d={self.d}, r={self.r}, "
            f"a={self.a}, gamma={self.gamma})"
        )


# --- internal polynomial helpers for determinant expansion ------------------

# A "term map" is {(hol_exponents, anti_exponents): coefficient} over d
# variables; unlike HermitianSeries it carries no symmetry requirement, so it
# can represent individual determinant entries.
_TermMap = dict[tuple[tuple[int, ...], tuple[int, ...]], float]


def _unit(d: int, i: int) -> tuple[int, ...]:
    e = [0] * d
    e[i] = 1
    return tuple(e)


def _zero_exp(d: int) -> tuple[int, ...]:
    return (0,) * d


def _term_mul(p1: _TermMap, p2: _TermMap) -> _TermMap:
    out: _TermMap = {}
    for (h1, a1), v1 in p1.items():
        for (h2, a2), v2 in p2.items():
            key = (
                tuple(x + y for x, y in zip(h1, h2)),
                tuple(x + y for x, y in zip(a1, a2)),
            )
            out[key] = out.get(key, 0.0) + v1 * v2
    return {k: v for k, v in out.items() if v != 0.0}


def _term_det(entries: list[list[_TermMap]]) -> _TermMap:
    """Determinant of a matrix of term maps by permutation expansion."""
    n = len(entries)
    out: _TermMap = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod: _TermMap | None = None
        for i in range(n):
            factor = entries[i][perm[i]]
            if not factor:
                prod = {}
                break
            prod = dict(factor) if prod is None else _term_mul(prod, factor)
        if not prod:
            continue
        for key, v in prod.items():
            out[key] = out.get(key, 0.0) + sign * v
    return {k: v for k, v in out.items() if v != 0.0}


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _sym_index(n: int, i: int, j: int) -> int:
    """Row-major position of upper-triangle entry (i, j), i <= j."""
    return i * n - i * (i - 1) // 2 + (j - i)


def _norm_terms(kind: str, params: tuple[int, ...]) -> tuple[_TermMap, int, int]:
    """Exact generic-norm polynomial: (terms, dimension d, degree)."""
    if kind == "I":
        p, q = params
        d = p * q
        zero = _zero_exp(d)
        entries: list[list[_TermMap]] = []
        for i in range(p):
            row = []
            for j in range(p):
                entry: _TermMap = {}
                if i == j:
                    entry[(zero, zero)] = 1.0
                for k in range(q):
                    key = (_unit(d, i * q + k), _unit(d, j * q + k))
                    entry[key] = entry.get(key, 0.0) - 1.0
                row.append(entry)
            entries.append(row)
        return _term_det(entries), d, p
    if kind == "III":
        (n,) = params
        d = n * (n + 1) // 2
        zero = _zero_exp(d)
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = {}
                if i == j:
                    entry[(zero, zero)] = 1.0
                for k in range(n):
                    zi = _sym_index(n, min(i, k), max(i, k))
                    wj = _sym_index(n, min(j, k), max(j, k))
                    key = (_unit(d, zi), _unit(d, wj))
                    entry[key] = entry.get(key, 0.0) - 1.0
                row.append(entry)
            entries.append(row)
        return _term_det(entries), d, n
    if kind == "IV":
        (n,) = params
        d = n
        terms: _TermMap = {(_zero_exp(d), _zero_exp(d)): 1.0}
        for i in range(n):
            terms[(_unit(d, i), _unit(d, i))] = -2.0
        for i in range(n):
            for k in range(n):
                ei = tuple(2 if t == i else 0 for t in range(d))
                ek = tuple(2 if t == k else 0 for t in range(d))
                terms[(ei, ek)] = terms.get((ei, ek), 0.0) + 1.0
        return terms, d, 2
    if kind == "CH":
        (dd,) = params
        terms = {(_zero_exp(dd), _zero_exp(dd)): 1.0}
        for i in range(dd):
            terms[(_unit(dd, i), _unit(dd, i))] = -1.0
        return terms, dd, 1
    raise ValueError(f"unknown domain kind {kind!r}")


def catalog(kind: str, *params: int) -> DomainModel:
    """Construct a catalog domain: catalog("I", p, q) | ("III", n) | ("IV", n) | ("CH", d)."""
    kind = kind.upper()
    if kind == "I":
        if len(params) != 2:
            raise ValueError("TypeI requires (p, q)")
        p, q = params
        if not (1 <= p <= q):
            raise ValueError(f"TypeI requires 1 <= p <= q, got ({p}, {q})")
        d, r, a, gamma = p * q, p, 2.0, p + q
    elif kind == "III":
        if len(params) != 1:
            raise ValueError("TypeIII requires (n,)")
        (n,) = params
        if n < 1:
            raise ValueError(f"TypeIII requires n >= 1, got {n}")
        d, r, a, gamma = n * (n + 1) // 2, n, 1.0, n + 1
    elif kind == "IV":
        if len(params) != 1:
            raise ValueError("TypeIV requires (n,)")
        (n,) = params
        if n < 3:
            raise ValueError(f"TypeIV requires n >= 3, got {n}")
        d, r, a, gamma = n, 2, float(n - 2), n
    elif kind == "CH":
        if len(params) != 1:
            raise ValueError("CH requires (d,)")
        (dd,) = params
        if dd < 1:
            raise ValueError(f"CH requires d >= 1, got {dd}")
        d, r, a, gamma = dd, 1, 2.0, dd + 1
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    terms, dim, degree = _norm_terms(kind, tuple(params))
    assert dim == d
    norm_poly = hs.from_terms(d, degree, terms)
    if norm_poly.coefficient(_zero_exp(d), _zero_exp(d)) != 1.0:
        raise AssertionError("generic norm must have unit constant term")
    return DomainModel(kind, tuple(int(p) for p in params), d, r, a, gamma, norm_poly)


_SPEC_RE = re.compile(r"^\s*(I|III|IV|CH)\s*:\s*(\d+(?:\s*,\s*\d+)*)\s*$", re.IGNORECASE)


def parse_domain(spec: str) -> DomainModel:
    """Parse "I:p,q" | "III:n" | "IV:n" | "CH:d"."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"bad domain spec {spec!r} (expected e.g. 'I:2,2' or 'CH:3')")
    params = tuple(int(t) for t in m.group(2).split(","))
    return catalog(m.group(1), *params)


# --- norm evaluation and membership -----------------------------------------


@lru_cache(maxsize=None)
def upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries i <= j of an n x n matrix, row-major (read-only)."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _coordinates(dom: DomainModel, x: np.ndarray) -> np.ndarray:
    """Points along the last axis as complex128, checked against the dimension."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1:] != (dom.d,):
        raise ValueError(
            f"expected length-{dom.d} coordinate vectors, got shape {x.shape}"
        )
    return x


def _as_matrix(dom: DomainModel, x: np.ndarray) -> np.ndarray:
    """Type I and III points (..., d) as their matrices (..., p, q) or (..., n, n)."""
    x = _coordinates(dom, x)
    if dom.kind == "I":
        return x.reshape(x.shape[:-1] + dom.params)
    (n,) = dom.params
    rows, cols = upper_triangle(n)
    z = np.empty(x.shape[:-1] + (n, n), dtype=np.complex128)
    z[..., rows, cols] = x
    z[..., cols, rows] = x
    return z


def norm_matrix(dom: DomainModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """k x l matrix of N(x_a, ybar_b) for point stacks xs (k, d) and ys (l, d).

    Types I and III stack every I - Z_a Z_b* (for symmetric Z_b that is
    I - Z_a Zbar_b) and take one stacked determinant; IV and CH are closed
    forms in the inner products <x_a, ybar_b>.  The contractions use einsum:
    on stacks this small a threaded BLAS matmul is far slower.
    """
    if dom.kind in ("I", "III"):
        zx = _as_matrix(dom, xs)
        zy = _as_matrix(dom, ys).conj()
        eye = np.eye(zx.shape[-2])
        return np.linalg.det(eye - np.einsum("aij,bkj->abik", zx, zy))
    x = _coordinates(dom, xs)
    yb = _coordinates(dom, ys).conj()
    inner = np.einsum("ai,bi->ab", x, yb)
    if dom.kind == "IV":
        xx = np.einsum("ai,ai->a", x, x)
        yy = np.einsum("bi,bi->b", yb, yb)
        return 1.0 - 2.0 * inner + xx[:, None] * yy[None, :]
    return 1.0 - inner  # CH


def generic_norm_eval(dom: DomainModel, x: np.ndarray, y: np.ndarray) -> complex:
    """N(x, ybar): polynomial in x and conjugate-polynomial in y."""
    xs, ys = np.asarray(x).reshape(1, -1), np.asarray(y).reshape(1, -1)
    return complex(norm_matrix(dom, xs, ys)[0, 0])


def spectral_radius(dom: DomainModel, x: np.ndarray) -> float | np.ndarray:
    """Homogeneous degree-1 gauge whose unit ball is the domain.

    Points lie along the last axis of x: one point gives a float, a (k, d)
    stack an array of k gauges.  I and III take the largest singular value
    from one stacked SVD; IV and CH are closed forms.
    """
    if dom.kind in ("I", "III"):
        gauge = np.linalg.svd(_as_matrix(dom, x), compute_uv=False)[..., 0]
    else:
        z = _coordinates(dom, x)
        t = np.einsum("...i,...i->...", z.conj(), z).real  # ||z||^2
        if dom.kind == "IV":
            s = np.abs(np.einsum("...i,...i->...", z, z))  # |z.z|
            t = t + np.sqrt(np.maximum(t * t - s * s, 0.0))
        gauge = np.sqrt(t)
    return gauge if gauge.ndim else float(gauge)


def contains(dom: DomainModel, x: np.ndarray) -> bool | np.ndarray:
    """Interior membership, per point for a (k, d) stack."""
    return spectral_radius(dom, x) < 1.0


def sample(
    dom: DomainModel,
    rng: int | np.random.Generator,
    radius_cap: float = 0.7,
) -> np.ndarray:
    """One interior point with spectral radius <= radius_cap; deterministic per seed."""
    if not 0.0 < radius_cap < 1.0:
        raise ValueError("radius_cap must lie in (0, 1)")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    for _ in range(_SAMPLE_RETRIES):
        raw = gen.standard_normal(dom.d) + 1j * gen.standard_normal(dom.d)
        s = spectral_radius(dom, raw)
        if s <= 0.0:
            continue
        # Radius distributed like a uniform draw from the gauge ball.
        target = radius_cap * gen.uniform() ** (1.0 / (2 * dom.d))
        x = raw * (target / s)
        if contains(dom, x):
            return x
    raise SamplingError(f"no interior sample for {dom.spec_string} within retry budget")


def sample_points(
    dom: DomainModel,
    count: int,
    rng: int | np.random.Generator,
    radius_cap: float = 0.7,
) -> list[np.ndarray]:
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return [sample(dom, gen, radius_cap) for _ in range(count)]


# --- Wallach set -------------------------------------------------------------


def wallach_set(dom: DomainModel) -> WallachSet:
    discrete = tuple(j * dom.a / 2.0 for j in range(dom.r))
    return WallachSet(discrete, discrete[-1])


def wallach_contains(dom: DomainModel, lam: float, tol: float = WALLACH_SNAP_TOL) -> bool:
    ws = wallach_set(dom)
    if lam > ws.continuous_from:
        return True
    return any(abs(lam - point) <= tol for point in ws.discrete)


# --- series access and catalog validation ------------------------------------


def norm_series(dom: DomainModel, cutoff: int) -> HermitianSeries:
    """The generic norm as a series at the requested cutoff (exact polynomial)."""
    return hs.rebase(dom.norm_poly, cutoff)


def one_minus_norm(dom: DomainModel, cutoff: int) -> HermitianSeries:
    """Q = 1 - N, the zero-constant-term series driving all expansions."""
    n = norm_series(dom, cutoff)
    keep = n.cols != 0  # every entry but the constant term (0, 0)
    return hs.from_entries(dom.d, cutoff, n.rows[keep], n.cols[keep], -n.values[keep])


@dataclass(frozen=True)
class CatalogValidation:
    domain_spec: str
    cutoff: int
    grid: tuple[float, ...]
    closed_form: tuple[bool, ...]
    truncated: tuple[bool, ...]
    norm_eval_max_err: float

    @property
    def consistent(self) -> bool:
        return self.closed_form == self.truncated


def _default_grid() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 10) for i in range(1, 31))


def validate_catalog(
    dom: DomainModel,
    cutoff: int,
    grid: Iterable[float] | None = None,
    seed: int = 0,
) -> CatalogValidation:
    """Cross-check catalog constants against the truncated positivity verdict.

    On each grid lambda the closed-form Wallach membership must match the PSD
    verdict of the truncated expansion of N^(-lambda) - 1.  Also ties the
    norm polynomial to the direct evaluator on random sample pairs.  Raises
    CatalogInconsistencyError on any disagreement.
    """
    from . import calabi  # deferred: calabi imports this module

    if cutoff < dom.r:
        raise ValueError(f"cutoff must be >= rank ({dom.r}) to expose every Wallach gap")
    lams = tuple(float(x) for x in (grid if grid is not None else _default_grid()))
    closed = tuple(wallach_contains(dom, lam) for lam in lams)
    truncated = []
    for lam in lams:
        s = calabi.bergman_diastasis_series(dom, lam, cutoff)
        verdict = calabi.psd_verdict(calabi.graded_blocks(s))
        truncated.append(verdict.psd)
    truncated = tuple(truncated)

    gen = np.random.default_rng(seed)
    max_err = 0.0
    for _ in range(5):
        x = sample(dom, gen, radius_cap=0.5)
        y = sample(dom, gen, radius_cap=0.5)
        direct = generic_norm_eval(dom, x, y)
        via_series = hs.evaluate(dom.norm_poly, x, y)
        max_err = max(max_err, abs(direct - via_series) / max(abs(direct), 1.0))
    report = CatalogValidation(dom.spec_string, cutoff, lams, closed, truncated, max_err)

    if max_err > 1e-12:
        raise CatalogInconsistencyError(
            f"{dom.spec_string}: norm polynomial disagrees with direct evaluator "
            f"(relative error {max_err:.3e})"
        )
    if not report.consistent:
        bad = [lam for lam, c, t in zip(lams, closed, truncated) if c != t]
        raise CatalogInconsistencyError(
            f"{dom.spec_string}: Wallach membership vs truncated verdict disagree "
            f"at lambda in {bad} (cutoff {cutoff})"
        )
    return report
