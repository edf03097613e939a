"""Fixtures shared by the test modules."""

import numpy as np
import pytest


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
        dj, dk = b[j].degree, b[k].degree
        if dj == dk and dj >= 1:
            o = b.degree_slice(dj).start
            mats[dj][j - o, k - o] = v
    return mats


@pytest.fixture
def dense_blocks():
    return _dense_blocks
