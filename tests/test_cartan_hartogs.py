"""Hartogs-type extensions: series paths, reduction verdict, Einstein probe."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import wallachkit as wk
from wallachkit import cartan_hartogs
from wallachkit.multiindex import MemoryLimitError, basis
from wallachkit.cartan_hartogs import (
    CHDomain,
    StencilError,
    thm1_threshold,
)
from wallachkit.series import generalized_binomial


def binomial_oracle(c: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= (c + i - 1)
        out /= i
    return out


# --- construction and membership ----------------------------------------------


def test_mu_einstein_values():
    assert wk.mu_einstein(wk.catalog("CH", 1)) == pytest.approx(1.0)
    assert wk.mu_einstein(wk.catalog("CH", 7)) == pytest.approx(1.0)
    assert wk.mu_einstein(wk.catalog("I", 2, 2)) == pytest.approx(0.8)
    assert wk.mu_einstein(wk.catalog("IV", 5)) == pytest.approx(5.0 / 6.0)


def test_parse_ch_spec():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    assert ch.base.spec_string == "I:2,2"
    assert ch.mu == pytest.approx(0.8)
    ch = wk.parse_ch_spec("CHD(CH:1;mu=1.5)")
    assert ch.mu == 1.5
    with pytest.raises(ValueError):
        wk.parse_ch_spec("CHD(I:2,2)")
    with pytest.raises(ValueError):
        wk.parse_ch_spec("CHD(I:2,2;mu=-1)")


def test_mu_must_be_positive():
    with pytest.raises(ValueError):
        CHDomain(wk.catalog("CH", 1), 0.0)


def test_fiber_membership():
    ch = CHDomain(wk.catalog("CH", 1), 2.0)
    # N(z,z) = 0.75 at z=0.5, fiber bound is 0.75^2 = 0.5625
    inside = np.array([0.5, 0.74], dtype=complex)
    outside = np.array([0.5, 0.76], dtype=complex)
    assert wk.ch_contains(ch, inside)
    assert not wk.ch_contains(ch, outside)


def test_base_point_outside_the_domain_is_outside_and_has_no_potential():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=1)")
    outside = np.array([1.5, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    assert not wk.ch_contains(ch, outside)
    with pytest.raises(ValueError, match="outside"):
        wk.ch_potential_eval(ch, outside)


def test_sample_inside():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    rng = np.random.default_rng(0)
    for _ in range(100):
        zw = wk.ch_sample(ch, rng)
        assert wk.ch_contains(ch, zw)


# --- potential -------------------------------------------------------------------


def test_potential_zero_at_origin():
    ch = wk.parse_ch_spec("CHD(III:2;mu=0.7)")
    assert wk.ch_potential_eval(ch, np.zeros(4, dtype=complex)) == pytest.approx(0.0)


def test_potential_hand_value():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    zw = np.array([0.5, 0.5], dtype=complex)
    assert wk.ch_potential_eval(ch, zw) == pytest.approx(math.log(2.0))


def test_potential_radial_in_fiber():
    ch = CHDomain(wk.catalog("I", 2, 2), 0.8)
    rng = np.random.default_rng(1)
    zw = wk.ch_sample(ch, rng)
    base = wk.ch_potential_eval(ch, zw)
    for theta in (0.7, 2.1):
        rotated = zw.copy()
        rotated[-1] *= np.exp(1j * theta)
        assert wk.ch_potential_eval(ch, rotated) == pytest.approx(base, rel=1e-13)


def test_potential_rejects_outside():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    with pytest.raises(ValueError):
        wk.ch_potential_eval(ch, np.array([0.9, 0.9], dtype=complex))


# --- series paths -----------------------------------------------------------------


def test_direct_series_is_multinomial_kernel():
    # base CH(1), mu=1, c=1: the two-variable ball kernel 1/(1-|z|^2-|w|^2)
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    s = wk.ch_direct_series(ch, 1.0, 4)
    for j in range(5):
        for k in range(5):
            if 0 < j + k <= 4:
                expected = math.comb(j + k, k)
                assert s.coefficient((j, k), (j, k)) == pytest.approx(
                    float(expected), rel=1e-12
                ), (j, k)
    v = wk.psd_verdict(wk.graded_blocks(s))
    assert v.psd


def test_pure_fiber_diagonal_is_binomial():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    c = Fraction(3, 2)
    s = wk.ch_direct_series(ch, float(c), 5)
    for m in range(1, 6):
        expected = float(binomial_oracle(c, m))
        assert s.coefficient((0, m), (0, m)) == pytest.approx(expected, rel=1e-12)


def test_first_order_fiber_coefficient_is_c():
    ch = CHDomain(wk.catalog("I", 2, 2), 0.8)
    s = wk.ch_direct_series(ch, 1.3, 2)
    assert s.coefficient((0, 0, 0, 0, 1), (0, 0, 0, 0, 1)) == pytest.approx(1.3)


def test_cross_path_equality_cases(assembled_reference, series_at, max_abs_diff):
    cases = [
        ("CH:1", 1.0, 1.5),
        ("CH:1", 1.0, 0.5),
        ("I:2,2", 0.8, 1.25),
    ]
    for base_spec, mu, c in cases:
        ch = CHDomain(wk.parse_domain(base_spec), mu)
        direct = wk.ch_direct_series(ch, c, 3)
        assembled = wk.ch_block_assembly(ch, c, 3)
        reference = assembled_reference(ch, c, 3)
        scale = max(direct.max_abs(), 1.0)
        at = series_at(direct, assembled.rows, assembled.cols)
        assert np.abs(at - assembled.values).max() <= 1e-10 * scale, (base_spec, mu, c)
        assert max_abs_diff(direct, reference) <= 1e-10 * scale, (base_spec, mu, c)


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        ("CHD(I:2,2;mu=einstein)", 6),
        ("CHD(III:3;mu=einstein)", 5),
        ("CHD(IV:5;mu=0.7)", 5),
        ("CHD(I:2,2;mu=1e-5)", 5),
    ],
)
def test_assembly_replays_one_plan_like_one_recurrence_per_w_degree(spec, cutoff):
    # The entries of w-degree m are those of the base matrix at mu(c + m) and
    # cutoff - m times w^m, scaled by C(c+m-1, m), and the 1x1 entry w^m.
    ch = wk.parse_ch_spec(spec)
    b = basis(ch.n_vars, cutoff)
    # c past which mu(c + m) lies in the continuous part for every m.
    threshold = (ch.base.r - 1) * ch.base.a / (2.0 * ch.mu)
    for c in (0.5 * threshold, 1.5 * threshold, 0.3, 1.25, 2.5):
        got = wk.ch_block_assembly(ch, c, cutoff)
        w_degree = b.exponents[got.rows, -1]
        for m in range(cutoff + 1):
            prefactor = generalized_binomial(c, m)
            exps = basis(ch.base.d, cutoff - m).exponents
            pos = b.rank(np.hstack((exps, np.full((len(exps), 1), m))))  # pos[0]: w^m
            w_m = pos[:1] if m else pos[:0]
            rows, cols, vals = [w_m], [w_m], [np.full(len(w_m), prefactor)]
            if m < cutoff:
                base = wk.calabi_matrix(ch.base, ch.mu * (c + m), cutoff - m)
                rows.append(pos[base.rows])
                cols.append(pos[base.cols])
                vals.append(prefactor * base.values)
            mine = w_degree == m
            assert np.array_equal(got.rows[mine], np.concatenate(rows)), (c, m)
            assert np.array_equal(got.cols[mine], np.concatenate(cols)), (c, m)
            assert got.values[mine].tobytes() == np.concatenate(vals).tobytes(), (c, m)


def test_assembly_builds_one_basis_in_the_base_variables():
    # basis(d, k) is a prefix of basis(d, cutoff), so the w-degrees slice one
    # basis instead of building one per degree cutoff - m.
    for mod in [m for name, m in sys.modules.items() if name.startswith("wallachkit")]:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    wk.ch_block_assembly(ch, 1.2, 6)
    built = []
    for k in range(7):
        misses = basis.cache_info().misses
        basis(ch.base.d, k)
        built.append(basis.cache_info().misses == misses)
    assert built == [False] * 6 + [True]


def test_fiber_degree_zero_structure():
    # coefficients pairing different w-degrees must vanish identically
    ch = CHDomain(wk.catalog("I", 2, 2), 0.8)
    s = wk.ch_direct_series(ch, 1.25, 3)
    b = s.basis
    bad = 0.0
    for j, k, v in s.items_full():
        if b.exponents[j, -1] != b.exponents[k, -1]:
            bad = max(bad, abs(v))
    assert bad <= 1e-13 * max(s.max_abs(), 1.0)


def test_normalization_of_extension_series():
    ch = CHDomain(wk.catalog("III", 2), 0.75)
    s = wk.ch_direct_series(ch, 1.1, 3)
    assert wk.normalization_check(s)


# --- reduction verdict and threshold ---------------------------------------------


def test_threshold_values():
    assert thm1_threshold(wk.catalog("I", 2, 2)) == pytest.approx(1.25)
    assert thm1_threshold(wk.catalog("IV", 5)) == pytest.approx(1.8)
    assert thm1_threshold(wk.catalog("CH", 3)) == 0.0
    assert thm1_threshold(wk.catalog("CH", 1)) == 0.0


def test_reduction_verdict_at_threshold():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    v = wk.ch_projectively_induced(ch, 1.25)
    assert v.induced
    # c*mu = 1.0 lands exactly on the discrete endpoint at m=0
    assert v.first_failure is None
    for c in (1.0, 1.1, 1.2):
        v = wk.ch_projectively_induced(ch, c)
        assert not v.induced
        m, value = v.first_failure
        assert m == 0
        assert value == pytest.approx(0.8 * c)


def test_reduction_failure_at_positive_m():
    # c*mu already in W but (c+1)*mu falling in the gap must be caught
    ch = CHDomain(wk.catalog("I", 2, 2), 0.5)
    v = wk.ch_projectively_induced(ch, 2.0)  # m=0: 1.0 ok; m=1: 1.5 > 1 ok
    assert v.induced
    v = wk.ch_projectively_induced(ch, 1.0)  # m=0: 0.5 in the gap
    assert not v.induced
    ch2 = CHDomain(wk.catalog("III", 3), 0.25)  # W discrete {0, 0.5, 1.0}
    v = wk.ch_projectively_induced(ch2, 2.0)  # 0.5, 0.75, ...
    assert not v.induced
    assert v.first_failure == (1, pytest.approx(0.75))
    # the scan stops at the failure; lambda_3 = 1.25 is the first past 1.0
    assert [(m, member) for m, _, member in v.checked] == [(0, True), (1, False)]
    assert v.stabilized_at == 3


def test_reduction_tiny_mu_answers_at_once():
    # lambda_m = 1e-300 (m + 1) would take 1e300 steps to pass the threshold
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=1e-300)")
    started = time.monotonic()
    v = wk.ch_projectively_induced(ch, 1.0)
    assert time.monotonic() - started < 1.0
    assert not v.induced
    assert v.checked == ((0, 1e-300, False),)
    assert v.first_failure == (0, 1e-300)
    assert v.stabilized_at == pytest.approx(1e300, rel=1e-12)


def test_reduction_float_plateau_uses_exact_monotonicity():
    # c + m rounds to c, so every float lambda_m is 1e-20 * 1e20 = 1.0, the
    # threshold of I:2,2; exactly, lambda_1 = 1 + 1e-20 is already past it.
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=1e-20)")
    v = wk.ch_projectively_induced(ch, 1e20)
    assert v.induced
    assert v.checked == ((0, 1.0, True),)
    assert v.stabilized_at == 1
    # III:3 has the discrete point 0.5 below its threshold 1: the plateau
    # above it is a gap.
    v = wk.ch_projectively_induced(wk.parse_ch_spec("CHD(III:3;mu=0.5e-20)"), 1e20)
    assert not v.induced
    assert v.checked == ((0, 0.5, True), (1, 0.5, False))
    assert v.first_failure == (1, 0.5)


def test_reduction_sub_tolerance_mu_fails_at_first_repeated_point():
    # mu below the snap tolerance: lambda_0 = 0.5 is the discrete point of
    # III:3, and lambda_1 = 0.5 + 1e-13 snaps to it too but exactly lies in
    # the gap above it, so the failure is at m = 1, not where the float
    # sequence leaves the tolerance (m = 11).
    v = wk.ch_projectively_induced(wk.parse_ch_spec("CHD(III:3;mu=1e-13)"), 5e12)
    assert not v.induced
    assert [(m, member) for m, _, member in v.checked] == [(0, True), (1, False)]
    assert v.first_failure[0] == 1


def test_block_assembly_refuses_over_budget():
    # 37 variables at cutoff 8: the basis alone is about 64 GB of exponents.
    ch = wk.parse_ch_spec("CHD(I:6,6;mu=einstein)")
    started = time.monotonic()
    with pytest.raises(MemoryLimitError, match=r"degree-8 basis in 37 variables.* GB"):
        wk.ch_block_assembly(ch, 1.0, 8)
    assert time.monotonic() - started < 1.0


def test_non_finite_mu_and_c_rejected():
    with pytest.raises(ValueError, match="finite"):
        wk.parse_ch_spec("CHD(I:2,2;mu=inf)")
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            wk.ch_projectively_induced(ch, c)


def test_rank_one_always_induced():
    ch = CHDomain(wk.catalog("CH", 2), 1.0)
    for c in (0.1, 0.5, 1.0, 3.7):
        assert wk.ch_projectively_induced(ch, c).induced


def test_above_threshold_always_induced():
    for base_spec in ("I:2,2", "IV:3", "III:2"):
        base = wk.parse_domain(base_spec)
        ch = CHDomain(base, wk.mu_einstein(base))
        t = thm1_threshold(base)
        for bump in (0.0, 0.35, 1.0):
            assert wk.ch_projectively_induced(ch, t + bump).induced, (base_spec, bump)


def test_truncated_verdict_matches_closed_form():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    v_true = wk.psd_verdict(wk.ch_block_assembly(ch, 1.25, 4))
    assert v_true.psd
    v_false = wk.psd_verdict(wk.ch_block_assembly(ch, 1.0, 4))
    assert not v_false.psd
    neg = [b for b in v_false.per_block if b.min_eigenvalue < -b.tol]
    assert neg, "expected an explicit negative block"


# --- Einstein probe ---------------------------------------------------------------


def test_einstein_residual_hyperbolic_plane():
    # base CH(1) with mu=1 is the two-dimensional complex hyperbolic ball;
    # for the potential -log(1 - |z|^2 - |w|^2) the Ricci matrix equals
    # -(n+1) g with n = 2 complex coordinates
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    rng = np.random.default_rng(3)
    zw = wk.ch_sample(ch, rng, z_radius_cap=0.3, w_fiber_cap=0.4)
    k, residual = wk.einstein_residual(ch, zw)
    assert residual <= 1e-5
    assert k == pytest.approx(-3.0, rel=1e-4)


def test_einstein_scaling_law():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    zw = np.array([0.2 + 0.1j, 0.25 - 0.05j])
    k1, r1 = wk.einstein_residual(ch, zw)
    k2, r2 = wk.einstein_residual(ch, zw, potential_scale=2.0)
    assert k2 == pytest.approx(k1 / 2.0, rel=1e-6)
    assert r2 <= 1e-5


@pytest.mark.parametrize("base_spec", ["III:2", "IV:3", "I:2,2"])
def test_einstein_jet_exact_at_einstein_mu(base_spec):
    # Ric = -(d+2) g on the Einstein extension of a d-dimensional base
    ch = wk.parse_ch_spec(f"CHD({base_spec};mu=einstein)")
    expected = -(ch.base.d + 2)
    rng = np.random.default_rng(7)
    for _ in range(2):
        zw = wk.ch_sample(ch, rng, z_radius_cap=0.6, w_fiber_cap=0.8)
        k, residual = wk.einstein_residual(ch, zw)
        assert abs(k - expected) <= 1e-9
        assert residual <= 1e-9
        k2, residual2 = wk.einstein_residual(ch, zw, potential_scale=2.0)
        assert abs(k2 - k / 2.0) <= 1e-12
        assert residual2 <= 1e-9


def test_einstein_jet_on_i44_base():
    # The jet comes from the 209 terms of N's Hermitian squares on I:4,4, not
    # from the 4845 monomials of N; one point keeps the test short.
    ch = wk.parse_ch_spec("CHD(I:4,4;mu=einstein)")
    zw = wk.ch_sample(ch, np.random.default_rng(7), z_radius_cap=0.6, w_fiber_cap=0.8)
    k, residual = wk.einstein_residual(ch, zw)
    assert abs(k + 18.0) <= 1e-9
    assert residual <= 1e-9


def test_einstein_jet_detects_non_einstein_mu():
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=1)")
    zw = wk.ch_sample(ch, np.random.default_rng(12), z_radius_cap=0.3, w_fiber_cap=0.35)
    k, residual = wk.einstein_residual(ch, zw)
    assert residual > 0.1
    assert abs(k + 6.0) > 0.1


def test_einstein_near_edge_point():
    # fiber bound at z=0.703 is sqrt(1-0.703^2) ~ 0.71119, so N^mu - |w|^2 is
    # about 3e-3 here and the metric's condition number about 320
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    near_edge = np.array([0.703, 0.709], dtype=complex)
    k, _ = wk.einstein_residual(ch, near_edge)
    assert abs(k + 3.0) <= 1e-9


def test_einstein_rejects_degenerate_metric():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    zw = np.array([0.2, 0.1], dtype=complex)
    with pytest.raises(StencilError, match="positive definite"):
        wk.einstein_residual(ch, zw, potential_scale=-1.0)


def test_einstein_rejects_outside_point():
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    with pytest.raises(StencilError, match="outside"):
        wk.einstein_residual(ch, np.array([0.9, 0.9], dtype=complex))


def test_einstein_rejects_an_ill_conditioned_metric(monkeypatch):
    # The near-edge point above has a metric condition number of about 320.
    monkeypatch.setattr(cartan_hartogs, "CONDITION_LIMIT", 100.0)
    ch = CHDomain(wk.catalog("CH", 1), 1.0)
    with pytest.raises(StencilError, match="condition number"):
        wk.einstein_residual(ch, np.array([0.703, 0.709], dtype=complex))
