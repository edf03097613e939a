"""Truncated Hermitian series algebra against exact-rational oracles.

The oracles work in one variable: a kernel built from powers of x = z*zbar is
diagonal, so its coefficients form an ordinary power series in x.  Products,
logs, and binomial expansions of those are computed here independently with
Fraction arithmetic and compared coefficientwise.
"""

from fractions import Fraction
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wallachkit as wk
from wallachkit import series as hs
from wallachkit.calabi import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    GRADING_REL_TOL,
    GradingError,
    graded_blocks,
    psd_verdict,
)
from wallachkit.cartan_hartogs import ch_direct_series, parse_ch_spec
from wallachkit.domains import norm_series, one_minus_norm, symmetries
from wallachkit.multiindex import basis
from wallachkit.series import (
    HermitianSeries,
    add,
    compile_recurrence,
    embed,
    evaluate,
    from_entries,
    from_terms,
    generalized_binomial,
    inverse_norm_power,
    inverse_power,
    linear_combination,
    power_sequence,
    product,
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


def test_product_with_constant_one_is_identity(max_abs_diff):
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
    exps = list(map(tuple, basis(n_vars, cutoff).exponents.tolist()))
    terms = {}
    for _ in range(n_terms):
        j, k = (int(x) for x in rng.integers(0, len(exps), size=2))
        if (exps[k], exps[j]) not in terms:
            terms[(exps[j], exps[k])] = float(rng.normal())
    return from_terms(n_vars, cutoff, terms)


def _brute_force_product(a, b):
    """Every pair of full entries, exponents added as tuples, kept within the cutoff."""
    exps = a.basis.exponents.tolist()
    acc = {}
    for j, k, va in a.items_full():
        for jj, kk, vb in b.items_full():
            hol = tuple(x + y for x, y in zip(exps[j], exps[jj]))
            anti = tuple(x + y for x, y in zip(exps[k], exps[kk]))
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
    exps = list(map(tuple, p.basis.exponents.tolist()))
    assert {(exps[j], exps[k]) for j, k, _ in p.items_full()} <= set(expected)
    for (hol, anti), v in expected.items():
        assert p.coefficient(hol, anti) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_product_commutative_exact(max_abs_diff):
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    q2 = linear_combination((add(q, product(q, q)),), (0.7,))
    assert max_abs_diff(product(q, q2), product(q2, q)) == 0.0


def test_product_associative_to_roundoff(max_abs_diff):
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    left = product(product(q, q), q)
    right = product(q, product(q, q))
    assert max_abs_diff(left, right) <= 1e-13 * max(left.max_abs(), 1.0)


def test_truncated_product_consistent_with_wider_cutoff(max_abs_diff):
    # truncating a degree-4 product to cutoff 2 equals the cutoff-2 product
    dom = wk.catalog("III", 2)
    q4 = one_minus_norm(dom, 4)
    q2 = embed(q4, q4.n_vars, 2)
    assert max_abs_diff(embed(product(q4, q4), q4.n_vars, 2), product(q2, q2)) <= 1e-14


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
    assert inverse_power(zero(2, 3), 0.6).is_zero()  # no powers at all


def test_inverse_power_lambda_one_geometric():
    got = diag_coeffs(inverse_power(unit_disk_q(5), 1.0))
    assert got == [0.0] + [pytest.approx(1.0, rel=1e-14)] * 5


def test_inverse_power_requires_zero_constant():
    bad = from_terms(1, 2, {((0,), (0,)): 0.5})
    with pytest.raises(ValueError):
        inverse_power(bad, 1.0)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(-3, 4)])
def test_inverse_norm_power_unit_disk(lam):
    # N = 1 - z zbar: the recurrence gives the binomial series of (1 - x)^(-lam)
    n = from_terms(1, 8, {((0,), (0,)): 1.0, ((1,), (1,)): -1.0})
    got = diag_coeffs(inverse_norm_power(n, float(lam)))
    want = binomial_series_oracle(lam, 9)
    for k in range(1, 9):
        assert got[k] == pytest.approx(float(want[k]), rel=1e-14)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(-3, 4)])
def test_inverse_norm_power_without_degree_one_terms(lam):
    # N = 1 - |z|^4: no pair reaches an odd level, so those levels are empty,
    # and (1 - x^2)^(-lam) = sum C(lam + k - 1, k) x^(2k).
    n = from_terms(1, 9, {((0,), (0,)): 1.0, ((2,), (2,)): -1.0})
    plan = compile_recurrence(n)
    assert [level[-1] for level in plan.levels] == [0, 1] * 4 + [0]
    got = inverse_norm_power(n, float(lam))
    assert got.rows.tolist() == got.cols.tolist() == [2, 4, 6, 8]
    want = binomial_series_oracle(lam, 5)
    for k in range(1, 5):
        assert got.coefficient((2 * k,), (2 * k,)) == pytest.approx(float(want[k]), rel=1e-14)


@pytest.mark.parametrize(
    "terms",
    [
        {((0,), (0,)): 1.0, ((1,), (0,)): 0.5},  # off-grade (1, 0) entry
        {((0,), (0,)): 1.0, ((2,), (1,)): 0.5},  # off-grade (2, 1) entry
        {((0,), (0,)): 2.0, ((1,), (1,)): -1.0},  # constant term 2
        {((1,), (1,)): -1.0},  # no constant term
    ],
)
def test_inverse_norm_power_rejects_other_series(terms):
    with pytest.raises(ValueError, match="constant term 1"):
        inverse_norm_power(from_terms(1, 3, terms), 0.5)


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


def test_exponent_additivity_on_catalog_norm(max_abs_diff):
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
    for s in (product(q, q), inverse_power(q, 0.6)):
        full = {(j, k): v for j, k, v in s.items_full()}
        for (j, k), v in full.items():
            assert full[(k, j)] == v


def test_power_sequence_lengths_and_values(max_abs_diff):
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
    # Rebasing to a lower cutoff is embed at the same n_vars.
    s = inverse_power(unit_disk_q(4), 1.0)
    r = embed(s, 1, 2)
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
        linear_combination((a, a), (1.0, -1.0)),
        linear_combination((b,), (0.3,)),
        linear_combination([a, b, a], [0.5, -2.0, 0.0]),
        product(a, b),
        embed(a, 3, 2),
        embed(a, 3, 5),
        embed(a, 5),
        embed(a, 4, 2),
        one_minus_norm(wk.catalog("I", 2, 3), 4),
        inverse_power(one_minus_norm(wk.catalog("III", 2), 3), 0.7),
        ch_direct_series(ch, 1.2, 4),
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
def test_linear_combination_add_and_diff_match_dict_reference(seed, max_abs_diff):
    rng = np.random.default_rng(seed)
    series = [_random_series(rng, 2, 4, 40) for _ in range(4)]
    series.append(linear_combination(series[:1], (-1.0,)))  # cancels series[0] exactly
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
    degrees, exps = b.degrees, list(map(tuple, b.exponents.tolist()))
    terms = {((0,) * n_vars, (0,) * n_vars): 0.5}
    for _ in range(n_terms):
        j = int(rng.integers(1, len(b)))
        k = int(rng.choice(np.flatnonzero(degrees == degrees[j])))
        if (exps[k], exps[j]) not in terms:
            terms[(exps[j], exps[k])] = float(rng.normal())
    return from_terms(n_vars, cutoff, terms)


def _off_grade(n_vars, cutoff, values):
    """Entry i of the given values between the last indices of degrees i + 1 and i + 2."""
    b = basis(n_vars, cutoff)
    last = [tuple(b.exponents[b.degree_slice(d).stop - 1].tolist()) for d in range(cutoff + 1)]
    return from_terms(n_vars, cutoff, {(last[i + 1], last[i + 2]): v for i, v in enumerate(values)})


@pytest.mark.parametrize("n_vars, cutoff, seed", [(1, 6, 0), (2, 4, 1), (3, 4, 2), (4, 3, 3)])
def test_graded_blocks_match_dense_reference(n_vars, cutoff, seed, dense_blocks):
    graded = _random_graded(np.random.default_rng(seed), n_vars, cutoff, 60)
    limit = GRADING_REL_TOL * graded.max_abs()
    under = limit * (1 - 1e-6)
    s = add(graded, _off_grade(n_vars, cutoff, [under, -under / 3]))
    cm = graded_blocks(s)
    dense = dense_blocks(s)
    kept = dense_blocks(from_entries(cm.n_vars, cm.cutoff, cm.rows, cm.cols, cm.values))
    assert list(kept) == list(range(1, cutoff + 1))
    for degree, block in kept.items():
        assert np.array_equal(block, dense[degree])
    # The random patterns give weight components of arbitrary shape; the
    # component eigensolve must match one dense eigh per block.
    verdict = psd_verdict(cm)
    assert [bv.degree for bv in verdict.per_block] == list(dense)
    for block, bv in zip(dense.values(), verdict.per_block):
        vals = np.linalg.eigvalsh(block)
        scale = float(np.max(np.abs(block)))
        assert bv.dim == len(block)
        assert bv.tol == max(DEFAULT_TOL_ABS, DEFAULT_TOL_REL * scale)
        assert abs(bv.min_eigenvalue - vals[0]) <= 1e-13 * scale
        assert bv.rank == np.count_nonzero(vals > bv.tol)
        if bv.witness is not None:
            w = bv.witness
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
            assert np.max(np.abs(block @ w - bv.min_eigenvalue * w)) <= 1e-12 * scale
    assert cm.off_grade_max == under
    assert cm.max_abs_coeff == graded.max_abs()
    with pytest.raises(GradingError):
        graded_blocks(add(graded, _off_grade(n_vars, cutoff, [-under / 3, limit * (1 + 1e-6)])))


def _reindex_reference(s, n_vars, cutoff):
    """{(hol, anti): v} of the canonical entries, padded and truncated as tuples."""
    pad = (0,) * (n_vars - s.n_vars)
    exps = list(map(tuple, s.basis.exponents.tolist()))
    ref = {}
    for (j, k), v in s.coeffs.items():
        hol, anti = exps[j] + pad, exps[k] + pad
        if sum(hol) <= cutoff and sum(anti) <= cutoff:
            ref[(hol, anti)] = v
    return ref


@pytest.mark.parametrize(
    "n_vars, cutoff, new_vars, new_cutoff",
    [(2, 4, 2, 2), (2, 4, 2, 6), (3, 3, 3, 1), (1, 5, 3, 5), (2, 3, 4, 2), (2, 3, 3, 4)],
)
def test_rebase_and_embed_match_tuple_reference(n_vars, cutoff, new_vars, new_cutoff):
    # new_vars == n_vars is a rebase to the new cutoff, the rest add variables.
    s = _random_series(np.random.default_rng(cutoff + new_vars), n_vars, cutoff, 40)
    got = embed(s, new_vars, new_cutoff)
    assert (got.n_vars, got.cutoff) == (new_vars, new_cutoff)
    ref = _reindex_reference(s, new_vars, new_cutoff)
    assert len(got.values) == len(ref)
    for (hol, anti), v in ref.items():
        assert got.coefficient(hol, anti) == v


@pytest.mark.parametrize(
    "spec, cutoff", [("III:3", 7), ("I:2,2", 8), ("IV:6", 8), ("I:3,3", 6), ("CH:2", 10)]
)
def test_recurrence_plan_leading_levels_are_lower_cutoffs(spec, cutoff):
    # Level a reads only N's terms of degree <= a, which are the same at every
    # cutoff, and basis(d, k) is a prefix of basis(d, cutoff): the plan's
    # levels up to k are inverse_norm_power at cutoff k, bit for bit, once
    # the exact zeros are dropped.
    dom = wk.parse_domain(spec)
    plan = compile_recurrence(norm_series(dom, cutoff))
    for lam in (0.0, 0.25, 0.5, 1.0, 1.3, 3.7):
        values = plan.values(lam)
        assert len(values) == len(plan.rows)
        for k in range(1, cutoff + 1):
            ref = inverse_norm_power(norm_series(dom, k), lam)
            stop = np.searchsorted(plan.rows, len(basis(dom.d, k)))
            keep = values[:stop] != 0.0
            assert np.array_equal(plan.rows[:stop][keep], ref.rows), (lam, k)
            assert np.array_equal(plan.cols[:stop][keep], ref.cols), (lam, k)
            assert values[:stop][keep].tobytes() == ref.values.tobytes(), (lam, k)
            assert plan.values(lam, k).tobytes() == values[:stop].tobytes(), (lam, k)


@pytest.mark.parametrize("lam", [1.5, 0.0])
def test_recurrence_plan_keeps_exact_zeros_and_inverse_norm_power_drops_them(lam):
    # On IV:6 the recurrence sums some entries to exactly zero at lambda = 1.5,
    # and every entry at lambda = 0.
    n = norm_series(wk.parse_domain("IV:6"), 6)
    plan = compile_recurrence(n)
    values = plan.values(lam)
    assert len(values) == len(plan.rows) and not values.all()
    s = inverse_norm_power(n, lam)
    keep = values != 0.0
    assert len(s.values) == np.count_nonzero(keep) < len(values)
    assert np.array_equal(s.rows, plan.rows[keep]) and np.array_equal(s.cols, plan.cols[keep])
    assert s.values.tobytes() == values[keep].tobytes()


def _hartogs_norm(spec, cutoff):
    """N^mu - |w|^2 of a Cartan-Hartogs spec, the series ch_series expands."""
    ch = parse_ch_spec(spec)
    nmu = inverse_norm_power(norm_series(ch.base, cutoff), -ch.mu)
    z, w = (0,) * ch.n_vars, (0,) * ch.base.d + (1,)
    one_minus_w2 = from_terms(ch.n_vars, cutoff, {(z, z): 1.0, (w, w): -1.0})
    return add(embed(nmu, ch.n_vars), one_minus_w2)


def _by_term_and_slot(level):
    """A level's pairs as (term * size + slot, src), in that key's order; a
    term feeds each slot at most once, so the key is unique."""
    *_, counts, src, slot, size = level
    key = np.repeat(np.arange(len(counts)), counts) * size + slot
    order = np.argsort(key, kind="stable")
    assert (np.diff(key[order]) > 0).all()
    return key[order], src[order]


def _assert_same_plan(got, want):
    # The pairs of one term may come in any order: each slot takes at most
    # one of them, and the replay's bincount adds a slot's terms in term
    # order, so the values are the same bit for bit.
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
    assert len(got.levels) == len(want.levels)
    for a, (level, ref) in enumerate(zip(got.levels, want.levels), 1):
        coef, g, counts, *_, size = level
        assert np.array_equal(coef, ref[0]) and np.array_equal(g, ref[1]), a
        assert np.array_equal(counts, ref[2]) and size == ref[5], a
        for x, y in zip(_by_term_and_slot(level), _by_term_and_slot(ref)):
            assert np.array_equal(x, y), a
    for lam in (-0.75, 0.5, 1.0, 3.7):  # 1 is a Wallach point of type I
        assert got.values(lam).tobytes() == want.values(lam).tobytes(), lam


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        ("I:2,2", 8), ("I:2,3", 7), ("I:2,4", 5), ("I:3,3", 6), ("I:3,3", 9),
        ("III:2", 8), ("III:3", 7), ("III:4", 6), ("IV:3", 8), ("IV:5", 6), ("IV:6", 8),
        ("CH:1", 30), ("CH:2", 10),
        ("CH:32", 3),  # 4^33 component labels overflow int64: labelled by np.unique
        ("CHD(I:2,2;mu=einstein)", 6), ("CHD(IV:3;mu=0.7)", 6),
        ("CHD(III:2;mu=0.5)", 6), ("CHD(CH:2;mu=1)", 8),
    ],
)
def test_recurrence_plan_equals_the_sorting_compile(spec, cutoff, sorting_compile):
    # Every weight component of a level is reached whole on these norms, so
    # taking the targets from the components adds none: the plans are equal.
    if spec.startswith("CHD("):
        n = _hartogs_norm(spec, cutoff)
    else:
        n = norm_series(wk.parse_domain(spec), cutoff)
    _assert_same_plan(compile_recurrence(n), sorting_compile(n))


def test_recurrence_compile_sorts_nothing_longer_than_the_basis(monkeypatch):
    # The targets come from the weight components, so the only sorts are
    # over N's terms and over basis positions, never over a level's pairs.
    # lexsort's keys are stacked on the first axis and sorted along the last.
    n = norm_series(wk.parse_domain("I:3,3"), 6)
    sorted_lengths = []
    for name in ("unique", "argsort", "sort", "lexsort"):
        def wrapped(a, *args, _f=getattr(np, name), _keys=name == "lexsort", **kwargs):
            sorted_lengths.append(np.shape(a)[-1] if _keys else np.size(a))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np, name, wrapped)
    plan = compile_recurrence(n)
    monkeypatch.undo()
    assert sorted_lengths and max(sorted_lengths) <= len(n.basis) < len(plan.levels[-1][3])


@pytest.mark.parametrize("level, off", [(2, 1), (2, -1), (5, 1), (5, -1)])
def test_a_level_that_misses_its_schedule_raises(monkeypatch, level, off):
    # Each level forms the pairs its schedule counts and fills arrays of the
    # size it gives: one pair more or fewer than scheduled is an error, not a
    # short or garbled plan, with III:3's permutations or without.
    dom = wk.parse_domain("III:3")
    n = norm_series(dom, 5)
    schedule = hs._schedule
    for generators in ((), symmetries(dom)):
        for which, field in enumerate(("formed", "kept")):
            scheduled = []

            def shifted(*args):
                out, cells = schedule(*args)
                counts = list(out[level - 1])
                scheduled.append(counts[which])
                counts[which] += off
                out[level - 1] = tuple(counts)
                return out, cells

            monkeypatch.setattr(hs, "_schedule", shifted)
            with pytest.raises(RuntimeError) as err:
                compile_recurrence(n, generators)
            want = scheduled[0]
            assert str(err.value) == f"level {level} {field} {want} pairs, not the {want + off} scheduled"


def _exponents(n_vars, degree):
    return [e for e in cartesian(range(degree + 1), repeat=n_vars) if sum(e) == degree]


@st.composite
def _norm_like(draw):
    """A random N with constant term 1 and real Hermitian (g, g) entries,
    g <= 3, with or without the diagonal degree-1 entries."""
    n_vars, cutoff = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    values = st.one_of(st.sampled_from([-1.0, -0.5, 0.25, 1.0]), st.floats(-1.0, 1.0))
    zero = (0,) * n_vars
    terms = {(zero, zero): 1.0}
    if draw(st.booleans()):
        for e in _exponents(n_vars, 1):
            terms[(e, e)] = draw(values)
    for _ in range(draw(st.integers(1, 5))):
        exps = _exponents(n_vars, draw(st.integers(1, 3)))
        pair = tuple(sorted((draw(st.sampled_from(exps)), draw(st.sampled_from(exps)))))
        terms[pair] = draw(values)
    return from_terms(n_vars, cutoff, terms)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    # sorting_compile returns a pure function, so sharing it across examples is safe.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(n=_norm_like(), lam=st.one_of(st.integers(-8, 24).map(lambda k: k / 4), st.floats(-2.0, 4.0)))
def test_inverse_norm_power_equals_the_sorting_compile_on_random_norms(n, lam, sorting_compile):
    # Where a component is not reached whole, its other pairs are exact
    # zeros, which inverse_norm_power drops.  The compile charges the memory
    # guard once, and a level whose pairs kept miss the schedule would raise.
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hs, "check_memory", lambda need, what: calls.append((need, what)))
        got = inverse_norm_power(n, lam)
    assert len(calls) == 1
    plan = sorting_compile(n)
    want = plan.series(plan.values(lam))
    assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
    assert got.values.tobytes() == want.values.tobytes()
