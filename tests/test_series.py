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
