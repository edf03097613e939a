"""Catalog of classical irreducible bounded symmetric domains.

Each :class:`DomainModel` carries the numerical invariants (complex dimension
d, rank r, the positive invariant a, genus gamma), the generic norm N both as
an exact polynomial kernel (a :class:`~wallachkit.series.HermitianSeries`) and
as a direct two-point evaluator, plus membership (on I and III both read the
pivots of one pivot-free elimination, of I - Z W* and of I - Z Z*), sampling,
and the closed-form Wallach set

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

norm_series builds the polynomial per cutoff, as a signed sum of Hermitian
squares N(z, w) = sum_t s_t f_t(z) conj(f_t(w)): on I, III and CH the f_t
are the k-minors of Z for k <= cutoff, with s_t = (-1)^k; on IV they are 1,
the z_i and z.z.  Constructing a domain builds no series.  symmetries lists
generators of the coordinate permutations that fix N, which the Calabi
spectral pass uses to solve one weight component per orbit.

The invariants are stored as catalog constants (standard Jordan-triple data);
validate_catalog() guards them by cross-checking the closed-form Wallach
membership against the truncated positivity verdict on a lambda grid.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import series as hs
from .multiindex import basis
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

    @property
    def spec_string(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __repr__(self) -> str:
        return (
            f"DomainModel({self.spec_string}, d={self.d}, r={self.r}, "
            f"a={self.a}, gamma={self.gamma})"
        )


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
    return DomainModel(kind, tuple(int(p) for p in params), d, r, a, gamma)


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


@lru_cache(maxsize=None)
def _entry_matrix(dom: DomainModel) -> np.ndarray:
    """The coordinate at each entry of Z: p x q on I, symmetric n x n on III,
    one row on CH and IV (read-only)."""
    if dom.kind == "III":
        rows, cols = upper_triangle(dom.params[0])
        entry = np.empty((dom.params[0],) * 2, dtype=np.int64)
        entry[rows, cols] = entry[cols, rows] = np.arange(dom.d)
    else:
        entry = np.arange(dom.d).reshape(dom.params if dom.kind == "I" else (1, dom.d))
    entry.flags.writeable = False
    return entry


def _entries_first(dom: DomainModel, x: np.ndarray) -> np.ndarray:
    """Z of type I and III points (..., d), entries first and the batch axes
    reversed after them, so each _pivots step runs over the whole batch; .T
    restores the batch order."""
    return _coordinates(dom, x).T[_entry_matrix(dom)]


def _pivots(g: np.ndarray) -> list[np.ndarray]:
    """The p pivots, each of shape (...), of I - g for g of shape (p, p, ...), from
    one Gaussian elimination without pivoting, a vectorized step per column; g
    is overwritten.

    Step k eliminates column k of I - g: the pivot is 1 - g_kk, and
    (I - g)_ij -= (I - g)_ik (I - g)_kj / pivot for i, j > k.  Where
    ||g||_2 < 1, I - g has a positive definite Hermitian part, so every pivot
    has a positive real part and none vanishes (Golub and Van Loan, 1979);
    for Hermitian g that holds iff I - g is positive definite.  After a zero
    or non-finite pivot the later ones are non-finite, with no warning.
    """
    pivots = []
    with np.errstate(all="ignore"):
        for k in range(len(g)):
            pivots.append(1.0 - g[k, k])
            g[k + 1 :, k + 1 :] += g[k + 1 :, k, None] * (g[k, k + 1 :] / pivots[k])[None]
    return pivots


def norm_matrix(dom: DomainModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(..., k, l) matrices of N(x_a, ybar_b) for point stacks xs (..., k, d) and ys (..., l, d).

    Leading axes are batch axes, as many on xs as on ys.  Types I and III
    form every g = Z_a Z_b* (Z_a Zbar_b for symmetric Z_b) and take
    det(I - g) as the product of its _pivots, one elimination over every
    pair; outside the domain N may be non-finite, with no warning.  IV and
    CH are closed forms in the inner products <x_a, ybar_b>.  The
    contractions use einsum: on stacks this small a threaded BLAS matmul is
    far slower.
    """
    if dom.kind in ("I", "III"):
        zx, zy = _entries_first(dom, xs), _entries_first(dom, ys)
        g = np.einsum("ica...,jcb...->ijba...", zx, zy.conj())
        with np.errstate(all="ignore"):
            return math.prod(_pivots(g)).T
    x = _coordinates(dom, xs)
    yb = _coordinates(dom, ys).conj()
    inner = np.einsum("...ai,...bi->...ab", x, yb)
    if dom.kind == "IV":
        xx = np.einsum("...ai,...ai->...a", x, x)
        yy = np.einsum("...bi,...bi->...b", yb, yb)
        return 1.0 - 2.0 * inner + xx[..., :, None] * yy[..., None, :]
    return 1.0 - inner  # CH


def generic_norm_eval(dom: DomainModel, x: np.ndarray, y: np.ndarray) -> complex:
    """N(x, ybar): polynomial in x and conjugate-polynomial in y."""
    xs, ys = np.asarray(x).reshape(1, -1), np.asarray(y).reshape(1, -1)
    return complex(norm_matrix(dom, xs, ys)[0, 0])


def spectral_radius(dom: DomainModel, x: np.ndarray) -> float | np.ndarray:
    """Homogeneous degree-1 gauge whose unit ball is the domain.

    Points lie along the last axis of x: one point gives a float, a (k, d)
    stack an array of k gauges.  I and III take the largest singular value
    from one stacked SVD; IV and CH are closed forms.  contains does not
    read it on I and III; sample scales by it.
    """
    if dom.kind in ("I", "III"):
        z = _coordinates(dom, x)[..., _entry_matrix(dom)]
        gauge = np.linalg.svd(z, compute_uv=False)[..., 0]
    else:
        z = _coordinates(dom, x)
        t = np.einsum("...i,...i->...", z.conj(), z).real  # ||z||^2
        if dom.kind == "IV":
            s = np.abs(np.einsum("...i,...i->...", z, z))  # |z.z|
            t = t + np.sqrt(np.maximum(t * t - s * s, 0.0))
        gauge = np.sqrt(t)
    return gauge if gauge.ndim else float(gauge)


def contains(dom: DomainModel, x: np.ndarray) -> bool | np.ndarray:
    """Interior membership, per point for a (k, d) stack.

    I and III: Z is inside iff I - Z Z* (p x p, the smaller side) is positive
    definite, i.e. iff every one of its _pivots has a positive real part:
    exact in exact arithmetic, defined for every input, and the elimination
    norm_matrix runs.  IV and CH compare their closed-form gauge with 1.  A
    NaN or infinite coordinate gives False on every kind, without a warning.
    """
    with np.errstate(all="ignore"):
        if dom.kind not in ("I", "III"):
            return spectral_radius(dom, x) < 1.0
        z = _entries_first(dom, x)
        pivots = _pivots(np.einsum("ik...,jk...->ij...", z, z.conj()))
        inside = np.logical_and.reduce([pivot.real > 0.0 for pivot in pivots])
    return inside.T if inside.ndim else bool(inside)


def sample(
    dom: DomainModel,
    rng: int | np.random.Generator,
    radius_cap: float = 0.7,
) -> np.ndarray:
    """One interior point with spectral radius <= radius_cap; deterministic per
    seed.  The one-point case of sample_points."""
    return sample_points(dom, 1, rng, radius_cap)[0]


def sample_points(
    dom: DomainModel,
    count: int,
    rng: int | np.random.Generator,
    radius_cap: float = 0.7,
) -> list[np.ndarray]:
    """count interior points, each with spectral radius <= radius_cap.

    Each point draws d complex normals (real parts, then imaginary parts) and
    then one uniform, point after point, so the points do not depend on how
    many are drawn at once; an all-zero normal draw, the only one whose gauge
    is 0, is drawn again.  One spectral_radius call gauges them all, and each
    direction is scaled to a gauge distributed like that of a uniform draw
    from the gauge ball of radius radius_cap.
    """
    if not 0.0 < radius_cap < 1.0:
        raise ValueError("radius_cap must lie in (0, 1)")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    raw = np.empty((count, dom.d), dtype=np.complex128)
    target = np.empty(count)
    for i in range(count):
        for _ in range(_SAMPLE_RETRIES):
            raw[i] = gen.standard_normal(dom.d) + 1j * gen.standard_normal(dom.d)
            if raw[i].any():
                break
        else:
            raise SamplingError(f"no interior sample for {dom.spec_string} within retry budget")
        target[i] = radius_cap * gen.uniform() ** (1.0 / (2 * dom.d))
    # The gauge is homogeneous, so each point's gauge is target <= radius_cap < 1.
    return list(raw * (target / spectral_radius(dom, raw))[:, None])


# --- Wallach set -------------------------------------------------------------


def wallach_set(dom: DomainModel) -> WallachSet:
    discrete = tuple(j * dom.a / 2.0 for j in range(dom.r))
    return WallachSet(discrete, discrete[-1])


def wallach_contains(dom: DomainModel, lam: float) -> bool:
    ws = wallach_set(dom)
    if lam > ws.continuous_from:
        return True
    return any(abs(lam - point) <= WALLACH_SNAP_TOL for point in ws.discrete)


# --- series access and catalog validation ------------------------------------


def _minors(entry: np.ndarray, max_order: int) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """((-1)^k, exponents (count, k!, d), coefficients (count, k!)) of the
    k-minors det Z_{S,T}, k = 1..max_order, where Z_ij is coordinate entry[i, j].

    Laplace expansion along the first row builds each k-minor from the
    (k-1)-minors as its k! terms; from_entries sums repeated monomials.
    """
    p, q = entry.shape
    level = {((), ()): (np.zeros((1, entry.max() + 1), dtype=np.int64), np.ones(1))}
    for k in range(1, max_order + 1):
        nxt = {}
        for rows in itertools.combinations(range(p), k):
            for cols in itertools.combinations(range(q), k):
                exps, coeffs = [], []
                for j, col in enumerate(cols):
                    sub_exps, sub_coeffs = level[(rows[1:], cols[:j] + cols[j + 1 :])]
                    sub_exps = sub_exps.copy()
                    sub_exps[:, entry[rows[0], col]] += 1
                    exps.append(sub_exps)
                    coeffs.append((-1.0) ** j * sub_coeffs)
                nxt[(rows, cols)] = (np.concatenate(exps), np.concatenate(coeffs))
        level = nxt
        exps, coeffs = zip(*level.values())
        yield (-1.0) ** k, np.stack(exps), np.stack(coeffs)


def _hermitian_squares(
    dom: DomainModel, max_degree: int
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """N(z, w) = sum_t s_t f_t(z) conj(f_t(w)) as (s, exponents, coefficients)
    stacks of f_t that share the sign s, minors up to order max_degree.

    Cauchy-Binet: det(I - Z W*) = sum_k (-1)^k sum_{S,T} det Z_{S,T}
    conj(det W_{S,T}); on III, W symmetric makes det(I - Z Wbar) the same sum.
    """
    d = dom.d
    yield 1.0, np.zeros((1, 1, d), dtype=np.int64), np.ones((1, 1))
    if dom.kind == "IV":
        unit = np.eye(d, dtype=np.int64)
        yield -2.0, unit[:, None, :], np.ones((d, 1))
        yield 1.0, 2 * unit[None], np.ones((1, d))
        return
    yield from _minors(_entry_matrix(dom), min(dom.r, max_degree))


def symmetries(dom: DomainModel) -> tuple[tuple[int, ...], ...]:
    """Generators g of the coordinate permutations in K, which fix N:
    N(z[g], w[g]) = N(z, w).  They swap and cycle the rows and the columns
    of Z on I (the coordinates on CH and IV), act as Z -> P Z P^T on III,
    and transpose Z on I:p,p."""
    entry = _entry_matrix(dom)
    p, q = entry.shape
    # (0 1) and (0 1 ... n-1) generate S_n; for n = 2 they coincide.
    perms = {n: [np.r_[1, 0, 2:n], np.roll(np.arange(n), 1)][: min(n - 1, 2)] for n in (p, q)}
    if dom.kind == "III":
        grids = [entry[g][:, g][upper_triangle(p)] for g in perms[p]]
    else:
        grids = [entry[g] for g in perms[p]] + [entry[:, g] for g in perms[q]]
        grids += [entry.T] if p == q > 1 else []
    return tuple(tuple(int(i) for i in g.ravel()) for g in grids)


@lru_cache(maxsize=None)
def norm_series(dom: DomainModel, cutoff: int) -> HermitianSeries:
    """The generic norm as a series at the requested cutoff (exact polynomial).

    Only squares of degree <= cutoff are formed.  N has degree r on every
    kind, so norm_series(dom, dom.r) is the whole polynomial.
    """
    b = basis(dom.d, cutoff)
    rows, cols, vals = [], [], []
    for sign, exps, coeffs in _hermitian_squares(dom, cutoff):
        pos = b.rank(exps)
        j, k = np.broadcast_arrays(pos[:, :, None], pos[:, None, :])
        upper = j <= k  # canonical entries; from_entries implies the mirrors
        rows.append(j[upper])
        cols.append(k[upper])
        vals.append(sign * (coeffs[:, :, None] * coeffs[:, None, :])[upper])
    s = hs.from_entries(dom.d, cutoff, *(np.concatenate(a) for a in (rows, cols, vals)))
    if s.constant_term() != 1.0:
        raise AssertionError("generic norm must have unit constant term")
    return s


def one_minus_norm(dom: DomainModel, cutoff: int) -> HermitianSeries:
    """Q = 1 - N, the zero-constant-term series of the power expansions."""
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


def validate_catalog(dom: DomainModel, cutoff: int) -> CatalogValidation:
    """Cross-check catalog constants against the truncated positivity verdict.

    On each lambda of the grid 0.1, 0.2, ..., 3 the closed-form Wallach
    membership must match the PSD verdict of the truncated expansion of
    N^(-lambda) - 1.  Also ties the norm polynomial to the direct evaluator
    on five sample pairs drawn with seed 0.  Raises
    CatalogInconsistencyError on any disagreement.
    """
    from . import calabi  # deferred: calabi imports this module

    if cutoff < dom.r:
        raise ValueError(f"cutoff must be >= rank ({dom.r}) to expose every Wallach gap")
    lams = tuple(round(0.1 * i, 10) for i in range(1, 31))
    closed = tuple(wallach_contains(dom, lam) for lam in lams)
    psd = dict.fromkeys(lams, True)
    for row in calabi.scan_lambdas(dom, lams, cutoff):
        psd[row.lam] = psd[row.lam] and row.psd
    truncated = tuple(psd[lam] for lam in lams)

    gen = np.random.default_rng(0)
    max_err = 0.0
    for _ in range(5):
        x = sample(dom, gen, radius_cap=0.5)
        y = sample(dom, gen, radius_cap=0.5)
        direct = generic_norm_eval(dom, x, y)
        via_series = hs.evaluate(norm_series(dom, dom.r), x, y)
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
