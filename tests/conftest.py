"""Fixtures shared by the test modules."""

import numpy as np
import pytest

import wallachkit as wk
from wallachkit.domains import spectral_radius
from wallachkit.multiindex import basis
from wallachkit.series import (
    _BATCH_PAIRS,
    RecurrencePlan,
    _mirror,
    _norm_terms,
    add,
    from_entries,
    generalized_binomial,
    linear_combination,
)


def _max_abs_diff(a, b):
    """max |a - b| over the entries of two series."""
    return linear_combination((a, b), (1.0, -1.0)).max_abs()


@pytest.fixture
def max_abs_diff():
    return _max_abs_diff


def _series_reconstruction_error(components, s):
    """Max |sum_j f_j(z) conj(f_j(w)) - (1 + s)| over every entry of the
    series s, every component's outer product formed in full: the reference
    calabi.immersion_reconstruction_error, which reads the orbit
    representatives of the matrix the components were factored from, is
    checked against."""
    b = s.basis
    rows, cols, vals = [], [], []
    for comp in components:
        pos = b.rank(np.array(list(comp.coeffs), dtype=np.int64).reshape(-1, s.n_vars))
        c = np.fromiter(comp.coeffs.values(), dtype=np.float64, count=len(pos))
        j, k = np.meshgrid(pos, pos, indexing="ij")
        upper = j <= k
        rows.append(j[upper])
        cols.append(k[upper])
        vals.append(np.outer(c, c)[upper])
    accum = from_entries(s.n_vars, s.cutoff, *(np.concatenate(a) for a in (rows, cols, vals)))
    return _max_abs_diff(accum, add(s, from_entries(s.n_vars, s.cutoff, [0], [0], [1.0])))


@pytest.fixture
def series_reconstruction_error():
    return _series_reconstruction_error


def _dense_blocks(s):
    """{degree: dense block} of a series' on-grade entries of positive degree,
    filled entry by entry: the reference the sparse Calabi matrix is checked
    against."""
    b = s.basis
    mats = {}
    for d in range(1, s.cutoff + 1):
        sl = b.degree_slice(d)
        mats[d] = np.zeros((sl.stop - sl.start, sl.stop - sl.start))
    for j, k, v in s.items_full():
        dj, dk = b.degrees[j], b.degrees[k]
        if dj == dk and dj >= 1:
            o = b.degree_slice(dj).start
            mats[dj][j - o, k - o] = v
    return mats


@pytest.fixture
def dense_blocks():
    return _dense_blocks


def _assembled_reference(ch, c, cutoff):
    """sum_m C(c+m-1, m) |w|^{2m} N^{-mu(c+m)}, one recurrence per w-degree m
    at cutoff - m: the reference the Cartan-Hartogs block assembly, which
    replays one plan at the cutoff, is checked against."""
    full = basis(ch.n_vars, cutoff)
    rows, cols, vals = [], [], []
    for m in range(cutoff + 1):
        prefactor = generalized_binomial(c, m)
        exps = basis(ch.base.d, cutoff - m).exponents
        pos = full.rank(np.hstack((exps, np.full((len(exps), 1), m))))  # pos[0]: w^m
        if m >= 1:
            rows.append(pos[:1])
            cols.append(pos[:1])
            vals.append([prefactor])
        if cutoff - m >= 1:
            s = wk.bergman_diastasis_series(ch.base, ch.mu * (c + m), cutoff - m)
            rows.append(pos[s.rows])
            cols.append(pos[s.cols])
            vals.append(prefactor * s.values)
    return from_entries(ch.n_vars, cutoff, *(np.concatenate(x) for x in (rows, cols, vals)))


@pytest.fixture
def assembled_reference():
    return _assembled_reference


def _series_at(s, rows, cols):
    """The coefficients of the series s at the canonical entries rows, cols,
    0.0 where s has none."""
    m = len(s.basis)
    keys, wanted = s.rows * m + s.cols, np.asarray(rows) * m + np.asarray(cols)
    at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    return np.where(keys[at] == wanted, s.values[at], 0.0)


@pytest.fixture
def series_at():
    return _series_at


def _pointwise_sample_points(dom, count, rng, radius_cap=0.7):
    """Interior points drawn and gauged one at a time, each scaled to a gauge
    drawn like that of a uniform point of the radius_cap ball: the reference
    domains.sample_points (one gauge for the whole stack) is checked against."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    points = []
    while len(points) < count:
        raw = gen.standard_normal(dom.d) + 1j * gen.standard_normal(dom.d)
        s = spectral_radius(dom, raw)
        if s > 0.0:
            target = radius_cap * gen.uniform() ** (1.0 / (2 * dom.d))
            points.append(raw * (target / s))
    return points


@pytest.fixture
def pointwise_sample_points():
    return _pointwise_sample_points


def _sorting_compile(n):
    """The RecurrencePlan of N^(-lam) with each level's targets found by
    np.unique over the keys of the pairs formed, so a level holds exactly the
    entries some pair reaches: the reference compile_recurrence, which takes
    its targets from the weight components, is checked against."""
    bas = n.basis
    exps = bas.exponents
    by_degree, coef, g, _ = _norm_terms(n)
    levels = [(np.zeros(1, dtype=np.int64),) * 3]
    rows, cols, plan = [], [], []
    at = 1
    for a in range(1, n.cutoff + 1):
        active = [terms for terms in by_degree if terms[0] <= a]
        sl = bas.degree_slice(a)
        dim = sl.stop - sl.start
        keys, srcs, counts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
        for level_g, es, gamma_row, delta_row, c in active:
            i, j, src = levels[a - level_g]
            shift = bas.rank(exps[bas.degree_slice(a - level_g)], exps[es][:, None]) - sl.start
            step = max(1, _BATCH_PAIRS // max(1, len(i)))
            for lo in range(0, len(c), step):
                b = slice(lo, lo + step)
                p, q = shift[gamma_row[b]].take(i, axis=1), shift[delta_row[b]].take(j, axis=1)
                keep = p <= q
                kept = np.flatnonzero(keep)
                keys.append((p * dim + q).ravel()[kept])
                srcs.append(src[kept % max(1, len(src))])
                counts.append(keep.sum(axis=1))
        targets, slot = np.unique(np.concatenate(keys), return_inverse=True)
        p, q = np.divmod(targets, dim)
        terms = sum(len(c) for *_, c in active)
        counts = np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)
        plan.append((coef[:terms], g[:terms], counts, np.concatenate(srcs), slot, len(targets)))
        rows.append(p + sl.start)
        cols.append(q + sl.start)
        levels.append(_mirror(p, q, np.arange(at, at + len(targets))))
        at += len(targets)
    rows, cols = (np.concatenate(x) if x else np.zeros(0, dtype=np.int64) for x in (rows, cols))
    return RecurrencePlan(n.n_vars, n.cutoff, rows, cols, tuple(plan))


@pytest.fixture
def sorting_compile():
    return _sorting_compile
