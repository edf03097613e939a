"""Enumeration order, ranking, and the rank tables."""

import itertools
from math import comb

import numpy as np
import pytest

import wallachkit as wk
from wallachkit import multiindex
from wallachkit.multiindex import Basis, basis
from wallachkit.series import from_terms


def brute_force_count(n_vars: int, max_degree: int) -> int:
    # stars-and-bars oracle by direct enumeration
    count = 0
    for exps in itertools.product(range(max_degree + 1), repeat=n_vars):
        if sum(exps) <= max_degree:
            count += 1
    return count


def test_single_variable_order():
    assert basis(1, 2).exponents.tolist() == [[0], [1], [2]]


def test_two_variable_degree_one():
    assert basis(2, 1).exponents.tolist() == [[0, 0], [1, 0], [0, 1]]


def test_count_matches_stars_and_bars():
    assert len(basis(4, 4)) == 70
    for n, d in [(2, 3), (3, 2), (5, 1)]:
        assert len(basis(n, d)) == brute_force_count(n, d)


def test_enumeration_complete_and_unique():
    rows = basis(3, 3).exponents.tolist()
    seen = set(map(tuple, rows))
    assert len(seen) == len(rows)
    for exps in itertools.product(range(4), repeat=3):
        if sum(exps) <= 3:
            assert exps in seen


def test_grading_non_decreasing_and_zero_first():
    exps = basis(4, 5).exponents
    assert exps[0].tolist() == [0, 0, 0, 0]
    degrees = exps.sum(axis=1).tolist()
    assert degrees == sorted(degrees)


def test_deterministic():
    assert np.array_equal(Basis(3, 4).exponents, basis(3, 4).exponents)


def test_degree_cached_consistent():
    b = basis(3, 5)
    i = int(b.rank((2, 0, 3)))
    assert b.exponents[i].tolist() == [2, 0, 3]
    assert b.degrees[i] == 5


def test_index_sum():
    # rank(a, b) places the index sum a + b without forming it.
    b = basis(2, 5)
    assert b.rank((1, 0), (0, 1)) == b.rank((1, 1))
    assert b.rank((0, 0), (2, 3)) == b.rank((2, 3))
    i = int(b.rank((2, 1), (1, 1)))
    assert b.exponents[i].tolist() == [3, 2]
    assert b.degrees[i] == 5


def test_index_sum_mismatch_rejected():
    with pytest.raises(ValueError):
        basis(2, 2).rank((1, 0), (1, 0, 0))


@pytest.mark.parametrize("terms", [([[2, -1]],), ((-1, 0),), ((1, 0), (0, -1)), ((3, 1), (-1, 0))])
def test_rank_rejects_negative_exponents(terms):
    # (2, -1) would rank as (0, 1) and a sum with a negative term as another
    # vector; every term is checked, even where the sum is nonnegative.
    with pytest.raises(ValueError, match="nonnegative"):
        basis(2, 3).rank(*terms)


def test_position_accepts_multi_index_and_tuple():
    # A tuple, a list and an int64 row rank alike.
    b = basis(2, 2)
    assert b.rank((1, 1)) == b.rank([1, 1]) == b.rank(np.array([1, 1])) == 4
    assert b.rank((0, 2)) == 5


def test_position_or_none_missing():
    # A vector above the cutoff ranks past the basis, where nothing is stored.
    b = basis(2, 2)
    assert b.rank((3, 0)) >= len(b)


@pytest.mark.parametrize("exponents", [(3, 0), (2, 1), (0, -1), (1,), (0, 0, 0), (), (-1, 3)])
def test_position_rejects_vectors_outside_the_basis(exponents):
    # No row of the basis holds these.  HermitianSeries.coefficient, the lookup
    # by exponents, gives 0.0 for them on either side (a degree above the
    # cutoff, a negative exponent or a wrong length), never an error or a
    # wrapped position.
    assert tuple(exponents) not in set(map(tuple, basis(2, 2).exponents.tolist()))
    s = from_terms(2, 2, {((1, 1), (1, 1)): 2.0, ((0, 2), (2, 0)): 3.0})
    assert s.coefficient(exponents, (1, 1)) == s.coefficient((1, 1), exponents) == 0.0
    assert s.coefficient(exponents, exponents) == 0.0
    assert s.coefficient((1, 1), (1, 1)) == 2.0
    assert s.coefficient((2, 0), (0, 2)) == s.coefficient((0, 2), (2, 0)) == 3.0


def test_position_is_left_inverse():
    b = basis(3, 4)
    for i in range(len(b)):
        assert b.rank(b.exponents[i]) == i


@pytest.mark.parametrize("n_vars, max_degree", [(1, 5), (2, 4), (3, 4), (4, 3), (6, 2)])
def test_basis_matches_brute_force_order(n_vars, max_degree):
    # Reference: every exponent vector of degree <= max_degree, sorted by the
    # graded key (degree first, then descending lex, first variable first).
    ref = sorted(
        (e for e in itertools.product(range(max_degree + 1), repeat=n_vars) if sum(e) <= max_degree),
        key=lambda e: (sum(e), tuple(-x for x in e)),
    )
    b = basis(n_vars, max_degree)
    assert b.exponents.tolist() == [list(e) for e in ref]
    assert b.degrees.tolist() == [sum(e) for e in ref]


def test_rank_refuses_positions_beyond_int64():
    # C(n + 120, n) positions precede degree 120 in 40 variables: about 1e36.
    with pytest.raises(ValueError, match=r"Basis\(n_vars=40.*int64"):
        basis(40, 2).rank(np.full(40, 3))
    # In 80 variables rank reads only C(t + m - 1, m) with t <= the degree
    # ranked, none near C(82, 41), which is beyond int64.
    assert basis(80, 2).rank(np.eye(80, dtype=np.int64)[:2].sum(axis=0)) == 82


def test_degree_slice_partitions():
    b = basis(3, 4)
    total = 0
    for degree in range(5):
        sl = b.degree_slice(degree)
        assert (b.exponents[sl].sum(axis=1) == degree).all()
        total += sl.stop - sl.start
    assert total == len(b)


def test_basis_cached():
    assert basis(3, 3) is basis(3, 3)


def test_basis_degrees_array():
    b = basis(2, 3)
    assert b.degrees.tolist() == b.exponents.sum(axis=1).tolist()


@pytest.mark.parametrize("n_vars, cutoff", [(1, 6), (2, 2), (3, 4), (4, 2), (6, 3), (9, 2)])
def test_rank_matches_position(n_vars, cutoff):
    b = basis(n_vars, cutoff)
    assert b.rank(b.exponents).tolist() == list(range(len(b)))
    # Sums of two indices, as the series product ranks them, land where the
    # doubled basis lists them, including degrees above this basis's cutoff.
    wide = basis(n_vars, 2 * cutoff)
    position = {e: i for i, e in enumerate(map(tuple, wide.exponents.tolist()))}
    sums = b.exponents[:, None, :] + b.exponents[None, :, :]
    expected = [[position[tuple(e)] for e in row] for row in sums.tolist()]
    ranks = b.rank(sums)
    assert ranks.tolist() == expected
    assert np.array_equal(b.rank(b.exponents[:, None], b.exponents[None, :]), ranks)
    assert np.array_equal(ranks >= len(b), sums.sum(axis=-1) > cutoff)


def test_rank_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 3"):
        basis(3, 2).rank(np.zeros((4, 2), dtype=np.int64))


def _comb_position(exponents):
    """The graded position of an exponent vector, read off math.comb directly."""
    n, tail = len(exponents), sum(exponents)
    pos = comb(tail - 1 + n, n)
    for k in range(1, n):
        tail -= exponents[k - 1]
        pos += comb(tail + n - k - 1, n - k)
    return pos


def test_rank_tables_are_built_at_the_top_asked():
    # One table per (variable count, top degree), built at exactly that top:
    # the recurrence ranks a handful of tops per verdict, so a table is
    # never grown.
    multiindex._rank_table.cache_clear()
    s = wk.bergman_diastasis_series(wk.parse_domain("CH:1"), 0.5, 2000)
    assert len(s.values) == 2000
    assert basis(1, 2000).rank(np.arange(2001)[:, None]).tolist() == list(range(2001))
    # The tables rank like the closed form, at every top asked.
    rng = np.random.default_rng(5)
    for n_vars, top in [(3, 5), (3, 40), (3, 300), (6, 25), (6, 120)]:
        exps = rng.multinomial(top, np.full(n_vars, 1.0 / n_vars), size=50)
        exps[:, 0] -= rng.integers(0, exps[:, 0] + 1)  # lower degrees too
        ranks = basis(n_vars, 1).rank(exps)
        assert ranks.tolist() == [_comb_position(e) for e in exps.tolist()]
        asked = int(exps.sum(axis=1).max())
        table = multiindex._rank_table(n_vars, asked)
        assert table.shape == (asked + 1, n_vars + 1)
        assert all(table[t, m] == comb(t + m - 1, m) for t in range(len(table))
                   for m in range(1, n_vars + 1))
