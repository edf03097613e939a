"""Hartogs-type extensions of the catalog domains and their scaled metrics.

A CHDomain over base Omega with fiber exponent mu > 0 is the set
{(z, w) : z in Omega, |w|^2 < N(z, z)^mu} with Kahler potential
D(z, w) = -log(N(z, z)^mu - |w|^2).  Coordinates are (z_1, ..., z_d, w).

Two independent expansions of e^{cD} - 1 = (N^mu - |w|^2)^{-c} - 1 are
provided, both by the recurrence of series.inverse_norm_power: a direct
(d+1)-variable series, N^mu - 1 as the recurrence at -mu and then that of
N^mu - |w|^2 (constant term 1, bidegrees (g, g) only) at c, and a block
assembly, the graded Calabi matrix that never expands in w, using

    (N^mu - |w|^2)^{-c} = sum_m C(c+m-1, m) |w|^{2m} N^{-mu(c+m)}

so each w-degree m contributes the base-domain expansion at Wallach
parameter mu(c+m) scaled by the binomial prefactor: one recurrence plan on
N, compiled once under the base's permutations and replayed at every
mu(c+m), whose orbits are the matrix's.  Their agreement at the assembly's
entries is a cross-check of the whole series stack.

The closed-form inducibility verdict reduces to base-domain Wallach
membership of mu(c+m) for every integer m >= 0, which stabilizes once
mu(c+m) passes the continuous threshold.  einstein_residual checks the
Einstein property of the metric at a point from the exact bidegree-(2,2)
Taylor jet of the potential, so the metric and the Ricci form come from
exact coefficients in double precision, with no numerical differentiation.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import series as hs
from .calabi import CalabiMatrix
from .domains import (
    WALLACH_SNAP_TOL,
    DomainModel,
    _hermitian_squares,
    contains,
    generic_norm_eval,
    norm_series,
    parse_domain,
    sample,
    symmetries,
    wallach_set,
)
from .multiindex import basis, check_memory
from .series import HermitianSeries

CONDITION_LIMIT = 1e8


class StencilError(Exception):
    """The Einstein probe cannot run at the point: it lies outside the domain
    or the metric there is not positive definite or is too ill-conditioned."""


@dataclass(frozen=True)
class CHDomain:
    base: DomainModel
    mu: float

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")

    @property
    def n_vars(self) -> int:
        return self.base.d + 1

    @property
    def spec_string(self) -> str:
        return f"CHD({self.base.spec_string};mu={format(self.mu, '.17g')})"


def mu_einstein(base: DomainModel) -> float:
    """The fiber exponent that makes the extension Kahler-Einstein."""
    return base.gamma / (base.d + 1)


_CH_SPEC_RE = re.compile(r"^\s*CHD\(\s*([^;()]+?)\s*;\s*mu\s*=\s*([^()]+?)\s*\)\s*$", re.IGNORECASE)


def parse_ch_spec(spec: str) -> CHDomain:
    """Parse "CHD(<base-spec>;mu=<real|einstein>)"."""
    m = _CH_SPEC_RE.match(spec)
    if not m:
        raise ValueError(
            f"bad Hartogs spec {spec!r} (expected e.g. 'CHD(I:2,2;mu=einstein)')"
        )
    base = parse_domain(m.group(1))
    mu_token = m.group(2).strip().lower()
    mu = mu_einstein(base) if mu_token == "einstein" else float(mu_token)
    return CHDomain(base, mu)


def ch_contains(ch: CHDomain, zw: np.ndarray) -> bool:
    zw = np.asarray(zw, dtype=np.complex128).reshape(-1)
    if zw.shape[0] != ch.n_vars:
        raise ValueError(f"expected length-{ch.n_vars} vector (z..., w)")
    z, w = zw[:-1], zw[-1]
    if not contains(ch.base, z):
        return False
    nzz = generic_norm_eval(ch.base, z, z).real
    return abs(w) ** 2 < nzz**ch.mu


def ch_potential_eval(ch: CHDomain, zw: np.ndarray) -> float:
    """D(z, w) = -log(N(z,z)^mu - |w|^2); zero at the origin."""
    zw = np.asarray(zw, dtype=np.complex128).reshape(-1)
    if not ch_contains(ch, zw):
        raise ValueError("point is outside the Hartogs domain")
    z, w = zw[:-1], zw[-1]
    nzz = generic_norm_eval(ch.base, z, z).real
    return -math.log(nzz**ch.mu - abs(w) ** 2)


def ch_sample(
    ch: CHDomain,
    rng: int | np.random.Generator,
    z_radius_cap: float = 0.4,
    w_fiber_cap: float = 0.5,
) -> np.ndarray:
    """Interior point with z bounded away from the base boundary and
    |w| <= w_fiber_cap * N(z,z)^(mu/2); deterministic per seed."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = sample(ch.base, gen, z_radius_cap)
    nzz = generic_norm_eval(ch.base, z, z).real
    fiber = nzz ** (ch.mu / 2.0)
    w = w_fiber_cap * fiber * math.sqrt(gen.uniform()) * np.exp(2j * math.pi * gen.uniform())
    return np.concatenate([z, [w]])


# --- series paths -------------------------------------------------------------


def ch_direct_series(ch: CHDomain, c: float, cutoff: int) -> HermitianSeries:
    """(N^mu - |w|^2)^{-c} - 1 computed entirely in d+1 variables: N^mu - 1
    is the recurrence at -mu, and N^mu - |w|^2, with constant term 1 and
    bidegrees (g, g) only, takes the recurrence at c in its turn."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not c > 0:
        raise ValueError("c must be positive")
    base = ch.base
    # N^mu - 1 in the base variables, then embedded with w as the last variable.
    nmu_minus_1 = hs.inverse_norm_power(norm_series(base, cutoff), -ch.mu)
    z, w = (0,) * ch.n_vars, (0,) * base.d + (1,)
    one_minus_w2 = hs.from_terms(ch.n_vars, cutoff, {(z, z): 1.0, (w, w): -1.0})
    return hs.inverse_norm_power(hs.add(hs.embed(nmu_minus_1, ch.n_vars), one_minus_w2), c)


def ch_block_assembly(ch: CHDomain, c: float, cutoff: int) -> CalabiMatrix:
    """Graded Calabi matrix of e^{cD} - 1, one w-degree m at a time, from one
    recurrence plan on N compiled under the base's permutations: per m, the
    plan's entries at levels <= cutoff - m replayed at mu(c + m) and scaled
    by C(c+m-1, m), at those monomials times w^m, and for m >= 1 the 1x1
    entry w^m.  Level a reads only N's terms of degree <= a, and basis(d, k)
    is a prefix of basis(d, cutoff), so the plan's levels up to cutoff - m
    are the expansion at that cutoff.  The permutations, with w fixed, fix
    the kernel: each base orbit of degree <= cutoff - m, times w^m, is one.
    Its sizes are the base plan's (RecurrencePlan.sizes)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not c > 0:
        raise ValueError("c must be positive")
    full = basis(ch.n_vars, cutoff)
    plan = hs.compile_recurrence(norm_series(ch.base, cutoff), symmetries(ch.base))
    o = plan.orbits
    # The constant term, value 1 and a 1x1 orbit at position 0, becomes w^m for m >= 1.
    rows, cols = np.r_[0, plan.rows], np.r_[0, plan.cols]
    positions, sizes, counts = np.r_[0, o.positions], np.r_[1, o.sizes], np.r_[1, o.counts]
    lead = positions[np.cumsum(sizes) - sizes]
    parts = []
    for m in range(cutoff + 1):
        # Positions of the base monomials times w^m; position 0 is w^m itself.
        exps = basis(ch.base.d, cutoff - m).exponents
        pos = full.rank(np.hstack((exps, np.full((len(exps), 1), m))))
        # Entries and orbits are in graded order, so those of degree <= cutoff - m lead.
        e, p, k = (np.count_nonzero(x < len(exps)) for x in (rows, positions, lead))
        values = hs.generalized_binomial(c, m) * np.r_[1.0, plan.values(ch.mu * (c + m), cutoff - m)]
        i = int(m == 0)  # N^(-lambda) - 1 has no constant term
        parts.append((pos[rows[i:e]], pos[cols[i:e]], values[i:e], pos[positions[i:p]],
                      sizes[i:k], counts[i:k]))
    rows, cols, values, positions, sizes, counts = map(np.concatenate, zip(*parts))
    order, least = np.lexsort((cols, rows)), positions[np.cumsum(sizes) - sizes]
    # The representatives in order of least position, each still ascending.
    orbits = hs.Orbits(tuple(g + (ch.base.d,) for g in o.generators),
                       positions[np.lexsort((positions, np.repeat(least, sizes)))],
                       sizes[np.argsort(least)], counts[np.argsort(least)])
    return CalabiMatrix(ch.spec_string, c, ch.n_vars, cutoff, rows[order], cols[order],
                        values[order], 0.0, float(np.abs(values).max(initial=0.0)), orbits,
                        plan.sizes())


# --- closed-form verdict and threshold ----------------------------------------


@dataclass(frozen=True)
class CHInducedVerdict:
    induced: bool
    checked: tuple[tuple[int, float, bool], ...]  # (m, lambda_m, member), up to the first failure
    first_failure: tuple[int, float] | None
    stabilized_at: int  # smallest m with lambda_m beyond the continuous threshold


def ch_projectively_induced(ch: CHDomain, c: float) -> CHInducedVerdict:
    """Closed-form reduction: c g(mu) is induced iff mu(c+m) lies in the
    base Wallach set minus {0} for every integer m >= 0.

    Once mu(c+m) exceeds the continuous threshold (r-1)a/2 every later m
    lands in the continuous part.  Below it only the r-1 positive discrete
    points pass and lambda_m increases, so the scan stops at the first
    failure, in exact arithmetic after at most r steps.  Because the exact
    lambda_m strictly increase, two of them cannot be the same discrete
    point: lambda_m (m > 0) passes only if it snaps to a different point
    than lambda_{m-1} did.  This also covers the float plateau where c + m
    rounds to c + m - 1.  A plateau at the threshold itself is past it.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be finite and positive, got {c}")
    base = ch.base
    threshold = (base.r - 1) * base.a / 2.0
    positive_points = wallach_set(base).discrete[1:]

    def lam_at(m: int) -> float:
        return ch.mu * (c + m)

    def past(m: int) -> bool:
        return lam_at(m) > threshold or (m > 0 and lam_at(m - 1) >= threshold)

    checked = []
    first_failure = None
    previous = None
    m = 0
    while not past(m):
        lam = lam_at(m)
        point = next(
            (p for p in positive_points if abs(lam - p) <= WALLACH_SNAP_TOL), None
        )
        member = point is not None and point != previous
        checked.append((m, lam, member))
        if not member:
            first_failure = (m, lam)
            break
        previous = point
        m += 1
    # Closed form of the first m past the threshold, then a one-step fix-up
    # with the same test; the quotient is capped so that a subnormal mu
    # cannot overflow it.
    stabilized_at = max(0, math.floor(min(threshold / ch.mu - c, sys.float_info.max)) + 1)
    if stabilized_at > 0 and past(stabilized_at - 1):
        stabilized_at -= 1
    elif not past(stabilized_at):
        stabilized_at += 1
    return CHInducedVerdict(first_failure is None, tuple(checked), first_failure, stabilized_at)


def thm1_threshold(base: DomainModel) -> float:
    """Smallest scale c for which c g(mu_einstein) is projectively induced."""
    return (base.r - 1) * (base.d + 1) * base.a / (2.0 * base.gamma)


# --- Einstein residual probe ----------------------------------------------------

# Jets are bidegree-(2,2) coefficient arrays over basis(n, 2): entry [i, j] is
# the coefficient of u^{m_i} vbar^{m_j} in F(p + u, p + v), the polarization
# of F around the probe point p.  Every non-constant term has total degree
# >= 1 and the jet stops at total degree 4, so a jet with zero constant term
# has vanishing fifth power and four powers expand any function of it.
# The contractions use reduceat and einsum, not matmul: they are so small that
# a threaded BLAS made the I:2,2 probe 60 times slower on two cores.
_JET_POWERS = 4


@lru_cache(maxsize=None)
def _jet_layout(n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts): the index pairs whose exponent sum survives the
    truncation, sorted by the position of that sum, and where each position's
    run of pairs starts."""
    b = basis(n_vars, 2)
    left, right = np.nonzero(b.degrees[:, None] + b.degrees[None, :] <= 2)
    target = b.rank(b.exponents[left], b.exponents[right])
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(len(b)))
    return left[order], right[order], starts


def _jet_product(x: np.ndarray, y: np.ndarray, layout: tuple[np.ndarray, ...]) -> np.ndarray:
    """Truncated product: every pair of surviving terms, summed onto its target."""
    left, right, starts = layout
    terms = x[np.ix_(left, left)] * y[np.ix_(right, right)]
    return np.add.reduceat(np.add.reduceat(terms, starts, axis=0), starts, axis=1)


def _jet_series(x: np.ndarray, coeffs: list[float], layout: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_k coeffs[k-1] y^k with y = x / x(p) - 1, for a jet x real at p."""
    y = x / x[0, 0].real
    y[0, 0] = 0.0
    out = coeffs[0] * y
    power = y
    for c in coeffs[1:]:
        power = _jet_product(power, y, layout)
        out = out + c * power
    return out


@lru_cache(maxsize=None)
def _square_terms(base: DomainModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(signs, starts, exponents, coefficients): the terms of N's Hermitian
    squares N(z, w) = sum_t s_t f_t(z) conj(f_t(w)) as one stack, square t
    owning the terms from starts[t] to the next start, each exponent padded
    with a zero for w."""
    signs, counts, exps, coeffs = [], [], [], []
    for sign, e, c in _hermitian_squares(base, base.r):
        signs.append(np.full(len(c), sign))
        counts.append(np.full(len(c), c.shape[1]))
        exps.append(e.reshape(-1, base.d))
        coeffs.append(c.ravel())
    counts = np.concatenate(counts)
    exps = np.concatenate(exps)
    padded = np.hstack((exps, np.zeros((len(exps), 1), dtype=np.int64)))
    return np.concatenate(signs), np.cumsum(counts) - counts, padded, np.concatenate(coeffs)


def _norm_jet(base: DomainModel, point: np.ndarray) -> np.ndarray:
    """Jet of N(z + u, z + v) at point = (z, w) from the Hermitian squares:
    sum_t s_t J_t(u) conj(J_t(v)), with J_t the jet of f_t(z + u) by binomial
    expansion of its terms, z^alpha -> sum_beta C(alpha, beta) z^{alpha-beta} u^beta."""
    signs, starts, exps, coeffs = _square_terms(base)
    jet_exps = basis(len(point), 2).exponents
    # One entry per (term, jet monomial, variable) in three arrays at once:
    # int64 offsets, their clipped copy, complex powers (32 B).
    entries = exps.size * len(jet_exps)
    check_memory(32 * entries, f"the Einstein probe's norm jet ({entries} transfer entries)")
    pascal = np.array([[math.comb(a, k) for k in range(3)] for a in range(exps.max() + 1)])
    rest = exps[:, None, :] - jet_exps[None, :, :]
    transfer = np.prod(pascal[exps[:, None, :], jet_exps[None, :, :]], axis=-1) * np.prod(
        point ** np.maximum(rest, 0), axis=-1
    )
    jets = np.add.reduceat(coeffs[:, None] * transfer, starts, axis=0)
    return np.einsum("tg,td->gd", signs[:, None] * jets, jets.conj())


def _in_frame(t: np.ndarray, frames: tuple[np.ndarray, ...]) -> np.ndarray:
    """t with axis k transformed by frames[k]: sum t[a, b, ..] f0[a, i] f1[b, j] ...

    One small matrix product per axis, each followed by a rotation of the
    axes, so the cost is n^(order + 1) rather than that of the Kronecker
    products of the frames.
    """
    rotate = (t.ndim - 1, *range(t.ndim - 1))  # the last axis to the front
    for f in reversed(frames):
        t = (t @ f).transpose(rotate)
    return t


def einstein_residual(
    ch: CHDomain,
    point: np.ndarray,
    potential_scale: float = 1.0,
) -> tuple[float, float]:
    """Probe Ric(g) = k g at a point; returns (k_estimate, max residual).

    Builds the exact bidegree-(2,2) Taylor jet of the potential
    D = -potential_scale * log(N^mu - |w|^2) at the point, reads the metric
    g and its first and mixed second derivatives off the jet coefficients,
    and forms Ric = -ddbar log det g from them:

        Ric_{c dbar} = -[tr(g^-1 d_c dbar_d g) - tr(g^-1 d_c g g^-1 dbar_d g)].

    k_estimate = trace(Ric g^{-1})/(d+1), residual = max |Ric - k g|.
    """
    zw = np.asarray(point, dtype=np.complex128).reshape(-1)
    n = ch.n_vars
    if zw.shape[0] != n:
        raise ValueError(f"expected length-{n} point")
    if not ch_contains(ch, zw):
        raise StencilError("point is outside the Hartogs domain")
    layout = _jet_layout(n)

    x = _norm_jet(ch.base, zw)
    x0 = x[0, 0].real
    # N^mu = x0^mu (1 + y)^mu with C(mu, k) = (-1)^k C(-mu + k - 1, k)
    binomials = [(-1) ** k * hs.generalized_binomial(-ch.mu, k) for k in range(1, _JET_POWERS + 1)]
    phi = x0**ch.mu * _jet_series(x, binomials, layout)
    w = zw[-1]
    phi[0, 0] += x0**ch.mu - abs(w) ** 2
    phi[n, 0] -= np.conj(w)
    phi[0, n] -= w
    phi[n, n] -= 1.0
    # log phi = log phi(p) + log(1 + y); the constant enters no derivative.
    logs = [(-1.0) ** (k + 1) / k for k in range(1, _JET_POWERS + 1)]
    pot = -potential_scale * _jet_series(phi, logs, layout)

    # Positions of e_a (1 + a) and of e_a + e_c, and the factorials
    # (e_a + e_c)! that turn jet coefficients into derivatives.
    first = np.arange(1, n + 1)
    b = basis(n, 2)
    unit = np.eye(n, dtype=np.int64)
    second = b.rank(unit[:, None], unit[None, :]).ravel()
    fact = (1.0 + np.eye(n)).ravel()
    g = pot[np.ix_(first, first)]
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise StencilError("metric is not positive definite at the point") from None
    cond = float(np.linalg.cond(g))
    if cond > CONDITION_LIMIT:
        raise StencilError(f"metric condition number {cond:.3e} exceeds limit")
    # Change to coordinates u = frame @ u' in which g is the identity, so g^-1
    # drops out of the formula.  Near the boundary the two traces nearly
    # cancel; in the original coordinates that cost k two to three digits.
    frame = np.linalg.inv(chol).T
    # In the new frame: dg[a, c, b] = d_c g_{a bbar}; dbar_g[a, b, d] = dbar_d g_{a bbar};
    # ddbar_g[a, c, b, d] = d_c dbar_d g_{a bbar}.  frame acts on each holomorphic
    # index, its conjugate on each antiholomorphic one.
    dg = _in_frame(
        (fact[:, None] * pot[np.ix_(second, first)]).reshape(n, n, n), (frame, frame, frame.conj())
    )
    dbar_g = _in_frame(
        (pot[np.ix_(first, second)] * fact).reshape(n, n, n), (frame, frame.conj(), frame.conj())
    )
    ddbar_g = _in_frame(
        (np.outer(fact, fact) * pot[np.ix_(second, second)]).reshape(n, n, n, n),
        (frame, frame, frame.conj(), frame.conj()),
    )
    ric = np.einsum("acb,bad->cd", dg, dbar_g) - np.einsum("acad->cd", ddbar_g)
    k = float(np.trace(ric).real) / n
    # Ric - k g, back in the original coordinates.
    residual = float(np.max(np.abs(chol @ (ric - k * np.eye(n)) @ chol.conj().T)))
    return k, residual
