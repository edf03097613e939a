"""Truncated Hermitian series algebra against exact-rational oracles.

The oracles work in one variable: a kernel built from powers of x = z*zbar is
diagonal, so its coefficients form an ordinary power series in x.  Products,
logs, and binomial expansions of those are computed here independently with
Fraction arithmetic and compared coefficientwise.
"""

from fractions import Fraction

import numpy as np
import pytest

import wallachkit as wk
from wallachkit.calabi import GRADING_REL_TOL, GradingError, graded_blocks
from wallachkit.cartan_hartogs import ch_assembled_series, parse_ch_spec
from wallachkit.domains import one_minus_norm
from wallachkit.multiindex import basis
from wallachkit.series import (
    HermitianSeries,
    add,
    embed,
    evaluate,
    from_terms,
    generalized_binomial,
    inverse_power,
    linear_combination,
    log_one_minus,
    max_abs_diff,
    power_sequence,
    product,
    rebase,
    scale,
    zero,
)


# --- one-variable Fraction oracles -------------------------------------------


def binomial_series_oracle(lam: Fraction, n_terms: int) -> list[Fraction]:
    """Coefficients of (1-x)^(-lam) by the running-product binomial rule."""
    out = [Fraction(1)]
    for k in range(1, n_terms):
        out.append(out[-1] * (lam + k - 1) / k)
    return out


def mercator_oracle(n_terms: int) -> list[Fraction]:
    """Coefficients of -log(1-x) = sum x^k / k."""
    return [Fraction(0)] + [Fraction(1, k) for k in range(1, n_terms)]


def mul_1d(a: list[Fraction], b: list[Fraction], n_terms: int) -> list[Fraction]:
    out = [Fraction(0)] * n_terms
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n_terms:
                out[i + j] += ai * bj
    return out


def exp_1d(a: list[Fraction], n_terms: int) -> list[Fraction]:
    """exp of a series with zero constant term, by Taylor summation."""
    assert a[0] == 0
    out = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    term = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for k in range(1, n_terms):
        term = mul_1d(term, a, n_terms)
        term = [t / k for t in term]
        out = [x + t for x, t in zip(out, term)]
    return out


def diag_coeffs(s: HermitianSeries) -> list[float]:
    """Diagonal (z^k, zbar^k) coefficients of a 1-variable series."""
    return [s.coefficient((k,), (k,)) for k in range(s.cutoff + 1)]


def unit_disk_q(cutoff: int) -> HermitianSeries:
    return from_terms(1, cutoff, {((1,), (1,)): 1.0})


# --- construction and canonical form ------------------------------------------


def test_from_terms_canonicalizes_hermitian_pair():
    s = from_terms(2, 2, {((1, 0), (0, 1)): 2.0})
    assert s.coefficient((1, 0), (0, 1)) == 2.0
    assert s.coefficient((0, 1), (1, 0)) == 2.0
    assert s.coefficient((1, 0), (1, 0)) == 0.0  # absent, in a row that has an entry


def test_from_terms_conflicting_pair_rejected():
    with pytest.raises(ValueError):
        from_terms(2, 2, {((1, 0), (0, 1)): 2.0, ((0, 1), (1, 0)): 3.0})


def test_from_terms_beyond_cutoff_dropped():
    # the truncation rule: out-of-range terms are silently discarded
    s = from_terms(1, 2, {((3,), (0,)): 1.0, ((1,), (1,)): 2.0})
    assert s.coefficient((1,), (1,)) == 2.0
    assert len(s.coeffs) == 1


def test_zero_and_is_zero():
    assert zero(2, 3).is_zero()
    assert not unit_disk_q(3).is_zero()


def test_constant_term():
    s = from_terms(1, 2, {((0,), (0,)): 1.0, ((1,), (1,)): 0.5})
    assert s.constant_term() == 1.0


# --- product ------------------------------------------------------------------


def test_product_single_term():
    s = unit_disk_q(2)
    p = product(s, s)
    assert p.coefficient((2,), (2,)) == 1.0
    assert p.coefficient((1,), (1,)) == 0.0


def test_product_with_constant_one_is_identity():
    one = from_terms(2, 3, {((0, 0), (0, 0)): 1.0})
    s = from_terms(2, 3, {((1, 0), (1, 0)): 2.0, ((1, 1), (1, 1)): -0.5})
    assert max_abs_diff(product(one, s), s) == 0.0


def test_product_truncation_rule():
    # (z zbar + z^2 zbar^2) * (z zbar) at cutoff 2 keeps only z^2 zbar^2
    s = from_terms(1, 2, {((1,), (1,)): 1.0, ((2,), (2,)): 1.0})
    p = product(s, unit_disk_q(2))
    assert diag_coeffs(p) == [0.0, 0.0, 1.0]


def _random_series(rng, n_vars, cutoff, n_terms):
    """Random Hermitian entries, graded and off-grade, at random positions."""
    b = basis(n_vars, cutoff)
    terms = {}
    for _ in range(n_terms):
        j, k = (int(x) for x in rng.integers(0, len(b), size=2))
        if ((b[k].exponents, b[j].exponents)) not in terms:
            terms[(b[j].exponents, b[k].exponents)] = float(rng.normal())
    return from_terms(n_vars, cutoff, terms)


def _brute_force_product(a, b):
    """Every pair of full entries, exponents added as tuples, kept within the cutoff."""
    bas = a.basis
    acc = {}
    for j, k, va in a.items_full():
        for jj, kk, vb in b.items_full():
            hol = tuple(x + y for x, y in zip(bas[j].exponents, bas[jj].exponents))
            anti = tuple(x + y for x, y in zip(bas[k].exponents, bas[kk].exponents))
            if sum(hol) <= a.cutoff and sum(anti) <= a.cutoff:
                acc[(hol, anti)] = acc.get((hol, anti), 0.0) + va * vb
    return acc


@pytest.mark.parametrize("n_vars, cutoff, seed", [(1, 5, 0), (2, 4, 1), (3, 3, 2), (3, 4, 3)])
def test_product_matches_brute_force_convolution(n_vars, cutoff, seed):
    rng = np.random.default_rng(seed)
    a = _random_series(rng, n_vars, cutoff, 25)
    b = _random_series(rng, n_vars, cutoff, 15)
    p = product(a, b)
    expected = _brute_force_product(a, b)
    assert {(p.basis[j].exponents, p.basis[k].exponents) for j, k, _ in p.items_full()} <= set(
        expected
    )
    for (hol, anti), v in expected.items():
        assert p.coefficient(hol, anti) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_product_commutative_exact():
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    q2 = scale(add(q, product(q, q)), 0.7)
    assert max_abs_diff(product(q, q2), product(q2, q)) == 0.0


def test_product_associative_to_roundoff():
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    left = product(product(q, q), q)
    right = product(q, product(q, q))
    assert max_abs_diff(left, right) <= 1e-13 * max(left.max_abs(), 1.0)


def test_truncated_product_consistent_with_wider_cutoff():
    # truncating a degree-4 product to cutoff 2 equals the cutoff-2 product
    dom = wk.catalog("III", 2)
    q4 = one_minus_norm(dom, 4)
    q2 = rebase(q4, 2)
    assert max_abs_diff(rebase(product(q4, q4), 2), product(q2, q2)) <= 1e-14


# --- binomial and logarithm oracles -------------------------------------------


def test_generalized_binomial_against_fraction_oracle():
    for lam in (Fraction(1, 2), Fraction(2), Fraction(-3, 4)):
        oracle = binomial_series_oracle(lam, 8)
        for k in range(8):
            assert generalized_binomial(float(lam), k) == pytest.approx(
                float(oracle[k]), rel=1e-14, abs=1e-300
            )


def test_inverse_power_unit_disk_lambda2():
    s = inverse_power(unit_disk_q(4), 2.0)
    # (1-x)^(-2) = sum (k+1) x^k, so the k=2 coefficient is 3
    assert s.coefficient((2,), (2,)) == pytest.approx(3.0, rel=1e-14)
    oracle = binomial_series_oracle(Fraction(2), 5)
    got = diag_coeffs(s)
    assert got[0] == 0.0  # the constant 1 is subtracted
    for k in range(1, 5):
        assert got[k] == pytest.approx(float(oracle[k]), rel=1e-13)


def test_inverse_power_lambda_zero_is_zero():
    assert inverse_power(unit_disk_q(4), 0.0).is_zero()


def test_inverse_power_lambda_one_geometric():
    got = diag_coeffs(inverse_power(unit_disk_q(5), 1.0))
    assert got == [0.0] + [pytest.approx(1.0, rel=1e-14)] * 5


def test_inverse_power_requires_zero_constant():
    bad = from_terms(1, 2, {((0,), (0,)): 0.5})
    with pytest.raises(ValueError):
        inverse_power(bad, 1.0)


def test_log_one_minus_mercator():
    got = diag_coeffs(log_one_minus(unit_disk_q(4)))
    oracle = mercator_oracle(5)
    for k in range(5):
        assert got[k] == pytest.approx(float(oracle[k]), rel=1e-14, abs=1e-300)


def test_log_one_minus_zero_input():
    assert log_one_minus(zero(2, 3)).is_zero()


def test_exp_log_round_trip_against_oracle():
    # inverse_power(Q, 1/2) + 1 must equal exp((1/2) log(1/(1-x))) coefficientwise
    lam = Fraction(1, 2)
    n = 7
    log_oracle = [lam * c for c in mercator_oracle(n)]
    exp_oracle = exp_1d(log_oracle, n)
    got = diag_coeffs(inverse_power(unit_disk_q(n - 1), float(lam)))
    assert got[0] == 0.0
    for k in range(1, n):
        assert got[k] == pytest.approx(float(exp_oracle[k]), rel=1e-13)


def test_exponent_additivity_on_catalog_norm():
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    lam, mu = 0.7, 0.9
    one = from_terms(q.n_vars, q.cutoff, {((0, 0, 0, 0), (0, 0, 0, 0)): 1.0})
    lhs = add(inverse_power(q, lam + mu), one)
    rhs = product(
        add(inverse_power(q, lam), one),
        add(inverse_power(q, mu), one),
    )
    assert max_abs_diff(lhs, rhs) <= 1e-12 * max(lhs.max_abs(), 1.0)


# --- structure preservation ----------------------------------------------------


def test_operations_preserve_hermitian_symmetry():
    dom = wk.catalog("III", 2)
    q = one_minus_norm(dom, 3)
    for s in (product(q, q), inverse_power(q, 0.6), log_one_minus(q)):
        full = {(j, k): v for j, k, v in s.items_full()}
        for (j, k), v in full.items():
            assert full[(k, j)] == v


def test_power_sequence_lengths_and_values():
    q = unit_disk_q(3)
    powers = power_sequence(q)
    # the sequence starts at Q^1 and stops when truncation kills the power
    assert max_abs_diff(powers[0], q) == 0.0
    assert max_abs_diff(powers[1], product(q, q)) == 0.0
    assert len(powers) == 3


def test_embed_adds_variables():
    q = unit_disk_q(2)
    e = embed(q, 3)
    assert e.n_vars == 3
    assert e.coefficient((1, 0, 0), (1, 0, 0)) == 1.0


def test_rebase_lower_cutoff_drops_terms():
    s = inverse_power(unit_disk_q(4), 1.0)
    r = rebase(s, 2)
    assert r.cutoff == 2
    assert diag_coeffs(r) == [0.0, 1.0, 1.0]


def test_evaluate_polarized():
    # series of 1 - z wbar evaluated at distinct arguments
    s = from_terms(1, 2, {((0,), (0,)): 1.0, ((1,), (1,)): -1.0})
    z = np.array([0.3 + 0.1j])
    w = np.array([0.2 - 0.4j])
    expected = 1.0 - z[0] * np.conj(w[0])
    assert evaluate(s, z, w) == pytest.approx(expected, rel=1e-15)


# --- the sorted-COO storage ------------------------------------------------------


def assert_canonical(s: HermitianSeries) -> None:
    """int64/float64 read-only arrays of nonzero entries, j <= k, keys increasing."""
    assert s.rows.dtype == np.int64 and s.cols.dtype == np.int64
    assert s.values.dtype == np.float64
    assert len(s.rows) == len(s.cols) == len(s.values)
    for a in (s.rows, s.cols, s.values):
        assert not a.flags.writeable
    m = len(s.basis)
    assert ((s.rows <= s.cols) & (s.cols < m) & (s.rows >= 0)).all()
    assert (np.diff(s.rows * m + s.cols) > 0).all()
    assert (s.values != 0.0).all()


def test_every_operation_keeps_the_canonical_form():
    rng = np.random.default_rng(5)
    a = _random_series(rng, 3, 3, 30)
    b = _random_series(rng, 3, 3, 20)
    ch = parse_ch_spec("CHD(I:2,2;mu=einstein)")
    results = [
        a,
        zero(3, 3),
        add(a, b),
        add(a, scale(a, -1.0)),
        scale(b, 0.3),
        linear_combination([a, b, a], [0.5, -2.0, 0.0]),
        product(a, b),
        rebase(a, 2),
        rebase(a, 5),
        embed(a, 5),
        embed(a, 4, 2),
        one_minus_norm(wk.catalog("I", 2, 3), 4),
        inverse_power(one_minus_norm(wk.catalog("III", 2), 3), 0.7),
        ch_assembled_series(ch, 1.2, 4),
    ]
    for s in results:
        assert_canonical(s)
    assert results[3].is_zero()


def _dict_combination(series, weights):
    """Reference: accumulate w * v per canonical key in list order, drop zeros."""
    acc = {}
    for s, w in zip(series, weights):
        if w == 0.0:
            continue
        for key, v in s.coeffs.items():
            acc[key] = acc.get(key, 0.0) + w * v
    return {key: v for key, v in acc.items() if v != 0.0}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_combination_add_and_diff_match_dict_reference(seed):
    rng = np.random.default_rng(seed)
    series = [_random_series(rng, 2, 4, 40) for _ in range(4)]
    series.append(scale(series[0], -1.0))  # cancels series[0] exactly
    weights = [float(w) for w in rng.normal(size=4)] + [0.0]
    weights[2] = 0.0
    got = linear_combination(series, weights)
    assert got.coeffs == _dict_combination(series, weights)
    a, b = series[0], series[1]
    assert add(a, b).coeffs == _dict_combination([a, b], [1.0, 1.0])
    assert add(a, series[4]).is_zero()
    keys = set(a.coeffs) | set(b.coeffs)
    expected = max(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) for k in keys)
    assert max_abs_diff(a, b) == expected


def _random_graded(rng, n_vars, cutoff, n_terms):
    """Random entries with equal degrees on both sides, the constant term included."""
    b = basis(n_vars, cutoff)
    degrees = np.array(b.degrees)
    terms = {((0,) * n_vars, (0,) * n_vars): 0.5}
    for _ in range(n_terms):
        j = int(rng.integers(1, len(b)))
        k = int(rng.choice(np.flatnonzero(degrees == degrees[j])))
        if (b[k].exponents, b[j].exponents) not in terms:
            terms[(b[j].exponents, b[k].exponents)] = float(rng.normal())
    return from_terms(n_vars, cutoff, terms)


def _off_grade(n_vars, cutoff, values):
    """Entry i of the given values between the last indices of degrees i + 1 and i + 2."""
    b = basis(n_vars, cutoff)
    last = [b[b.degree_slice(d).stop - 1].exponents for d in range(cutoff + 1)]
    return from_terms(n_vars, cutoff, {(last[i + 1], last[i + 2]): v for i, v in enumerate(values)})


def _dense_blocks(s):
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


@pytest.mark.parametrize("n_vars, cutoff, seed", [(1, 6, 0), (2, 4, 1), (3, 4, 2), (4, 3, 3)])
def test_graded_blocks_match_dense_reference(n_vars, cutoff, seed):
    graded = _random_graded(np.random.default_rng(seed), n_vars, cutoff, 60)
    limit = GRADING_REL_TOL * graded.max_abs()
    under = limit * (1 - 1e-6)
    s = add(graded, _off_grade(n_vars, cutoff, [under, -under / 3]))
    cm = graded_blocks(s)
    dense = _dense_blocks(s)
    assert [blk.degree for blk in cm.blocks] == list(range(1, cutoff + 1))
    for blk in cm.blocks:
        assert blk.dim == len(dense[blk.degree])
        assert np.array_equal(blk.matrix, dense[blk.degree])
    assert cm.off_grade_max == under
    assert cm.max_abs_coeff == graded.max_abs()
    with pytest.raises(GradingError):
        graded_blocks(add(graded, _off_grade(n_vars, cutoff, [-under / 3, limit * (1 + 1e-6)])))


def _reindex_reference(s, n_vars, cutoff):
    """{(hol, anti): v} of the canonical entries, padded and truncated as tuples."""
    pad = (0,) * (n_vars - s.n_vars)
    b = s.basis
    ref = {}
    for (j, k), v in s.coeffs.items():
        hol, anti = b[j].exponents + pad, b[k].exponents + pad
        if sum(hol) <= cutoff and sum(anti) <= cutoff:
            ref[(hol, anti)] = v
    return ref


@pytest.mark.parametrize(
    "n_vars, cutoff, new_vars, new_cutoff",
    [(2, 4, 2, 2), (2, 4, 2, 6), (3, 3, 3, 1), (1, 5, 3, 5), (2, 3, 4, 2), (2, 3, 3, 4)],
)
def test_rebase_and_embed_match_tuple_reference(n_vars, cutoff, new_vars, new_cutoff):
    s = _random_series(np.random.default_rng(cutoff + new_vars), n_vars, cutoff, 40)
    if new_vars == n_vars:
        got = rebase(s, new_cutoff)
    else:
        got = embed(s, new_vars, new_cutoff)
    assert (got.n_vars, got.cutoff) == (new_vars, new_cutoff)
    ref = _reindex_reference(s, new_vars, new_cutoff)
    assert len(got.values) == len(ref)
    for (hol, anti), v in ref.items():
        assert got.coefficient(hol, anti) == v
