"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from wallachkit.domains import spectral_radius


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
