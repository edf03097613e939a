"""Catalog invariants, norm evaluation, membership, sampling, Wallach sets."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import wallachkit as wk
from wallachkit.domains import (
    CatalogInconsistencyError,
    norm_matrix,
    norm_series,
    one_minus_norm,
    spectral_radius,
    symmetries,
)
from wallachkit.cli import main
from wallachkit.multiindex import basis
from wallachkit.series import embed, evaluate


# --- catalog constants ----------------------------------------------------------


@pytest.mark.parametrize("spec", ["I:2,3", "I:3,3", "III:3", "IV:5", "CH:3"])
def test_symmetries_fix_the_generic_norm(spec):
    dom = wk.parse_domain(spec)
    n = norm_series(dom, dom.r)
    b = n.basis
    gens = symmetries(dom)
    assert gens and all(sorted(g) == list(range(dom.d)) for g in gens)
    for g in gens:
        pos = b.rank(b.exponents[:, list(g)])
        rows, cols = pos[n.rows], pos[n.cols]
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        order = np.lexsort((cols, rows))
        assert np.array_equal(rows[order], n.rows), g
        assert np.array_equal(cols[order], n.cols), g
        assert np.array_equal(n.values[order], n.values), g


def test_type_i_invariants():
    dom = wk.catalog("I", 2, 2)
    assert (dom.d, dom.r, dom.a, dom.gamma) == (4, 2, 2.0, 4)
    dom = wk.catalog("I", 2, 3)
    assert (dom.d, dom.r, dom.a, dom.gamma) == (6, 2, 2.0, 5)


def test_type_iii_invariants():
    dom = wk.catalog("III", 2)
    assert (dom.d, dom.r, dom.a, dom.gamma) == (3, 2, 1.0, 3)
    dom = wk.catalog("III", 3)
    assert (dom.d, dom.r, dom.a, dom.gamma) == (6, 3, 1.0, 4)


def test_type_iv_invariants():
    dom = wk.catalog("IV", 5)
    assert (dom.d, dom.r, dom.a, dom.gamma) == (5, 2, 3.0, 5)
    ws = wk.wallach_set(dom)
    assert ws.continuous_from == pytest.approx(1.5)


def test_ch_is_rank_one():
    dom = wk.catalog("CH", 3)
    assert (dom.d, dom.r, dom.gamma) == (3, 1, 4)
    ws = wk.wallach_set(dom)
    assert ws.discrete == (0.0,)
    assert ws.continuous_from == 0.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        wk.catalog("I", 3, 2)  # needs p <= q
    with pytest.raises(ValueError):
        wk.catalog("IV", 2)  # needs n >= 3
    with pytest.raises(ValueError):
        wk.catalog("III", 0)
    with pytest.raises(ValueError):
        wk.catalog("V", 1)


def test_parse_domain_round_trip():
    for spec in ("I:2,2", "I:2,3", "III:2", "IV:5", "CH:3"):
        dom = wk.parse_domain(spec)
        assert dom.spec_string == spec
    with pytest.raises(ValueError):
        wk.parse_domain("I:2")
    with pytest.raises(ValueError):
        wk.parse_domain("frobnicate")


# --- generic norm ----------------------------------------------------------------


def test_norm_at_origin_is_one():
    for spec in ("I:2,2", "III:2", "IV:3", "CH:2"):
        dom = wk.parse_domain(spec)
        z = np.zeros(dom.d, dtype=complex)
        assert wk.generic_norm_eval(dom, z, z) == pytest.approx(1.0)


def test_unit_disk_norm():
    dom = wk.catalog("CH", 1)
    x = np.array([0.5 + 0j])
    assert wk.generic_norm_eval(dom, x, x) == pytest.approx(0.75)


def test_type_i_norm_hand_value():
    dom = wk.catalog("I", 2, 2)
    x = np.array([0.5, 0, 0, 0.5], dtype=complex)  # diag(0.5, 0.5) row-major
    # det(I - X X*) = (1 - 0.25)^2
    assert wk.generic_norm_eval(dom, x, x) == pytest.approx(0.5625)


def test_type_iii_norm_matches_matrix_determinant():
    dom = wk.catalog("III", 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = wk.sample(dom, rng, 0.6)
        y = wk.sample(dom, rng, 0.6)
        # coordinates are the upper triangle row-major of a symmetric matrix
        zm = np.array([[x[0], x[1]], [x[1], x[2]]])
        wm = np.array([[y[0], y[1]], [y[1], y[2]]])
        expected = np.linalg.det(np.eye(2) - zm @ np.conj(wm))
        assert wk.generic_norm_eval(dom, x, y) == pytest.approx(expected, rel=1e-13)


def test_type_iv_norm_matches_formula():
    dom = wk.catalog("IV", 4)
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = wk.sample(dom, rng, 0.6)
        w = wk.sample(dom, rng, 0.6)
        wb = np.conj(w)
        expected = 1.0 - 2.0 * np.dot(z, wb) + np.dot(z, z) * np.dot(wb, wb)
        assert wk.generic_norm_eval(dom, z, w) == pytest.approx(expected, rel=1e-13)


def test_ch_reduces_to_affine_ball_norm():
    dom = wk.catalog("CH", 3)
    rng = np.random.default_rng(7)
    z = wk.sample(dom, rng, 0.6)
    w = wk.sample(dom, rng, 0.6)
    expected = 1.0 - np.dot(z, np.conj(w))
    assert wk.generic_norm_eval(dom, z, w) == pytest.approx(expected, rel=1e-14)


def test_diagonal_norm_real_in_unit_interval():
    rng = np.random.default_rng(8)
    for spec in ("I:2,2", "III:2", "IV:5", "CH:2"):
        dom = wk.parse_domain(spec)
        for _ in range(50):
            x = wk.sample(dom, rng, 0.8)
            n = wk.generic_norm_eval(dom, x, x)
            assert abs(n.imag) <= 1e-14
            assert 0.0 < n.real <= 1.0


def test_circular_symmetry():
    rng = np.random.default_rng(9)
    for spec in ("I:2,2", "III:2", "IV:3", "CH:2"):
        dom = wk.parse_domain(spec)
        x = wk.sample(dom, rng, 0.6)
        y = wk.sample(dom, rng, 0.6)
        base = wk.generic_norm_eval(dom, x, y)
        for theta in (0.3, 1.1, 2.9):
            ph = np.exp(1j * theta)
            rotated = wk.generic_norm_eval(dom, ph * x, ph * y)
            assert rotated == pytest.approx(base, rel=1e-12, abs=1e-12)


def _gauge_one_point(dom):
    """A point of gauge 1: the identity for I and III, e_1 for IV and CH."""
    if dom.kind == "I":
        p, q = dom.params
        return np.eye(p, q).reshape(-1).astype(complex)
    if dom.kind == "III":
        rows, cols = np.triu_indices(dom.params[0])
        return (rows == cols).astype(complex)
    return np.eye(dom.d, dtype=complex)[0]


STACK_SPECS = ("I:2,3", "I:3,3", "III:3", "IV:5", "CH:2")


def test_norm_matrix_matches_pairwise():
    # Sampled points plus points on one complex line at radius 0.975 with
    # phases pi/3 apart: for I, III and IV some of those pairs have Re N < 0.
    rng = np.random.default_rng(19)
    violations = {}
    for spec in STACK_SPECS:
        dom = wk.parse_domain(spec)
        line = [0.975 * np.exp(1j * t) * _gauge_one_point(dom) for t in (0.0, 1.1, 2.2)]
        xs = np.array([wk.sample(dom, rng, 0.9) for _ in range(4)] + line)
        ys = xs[::-1][:5]
        n = norm_matrix(dom, xs, ys)
        assert n.shape == (len(xs), len(ys))
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                pair = wk.generic_norm_eval(dom, x, y)
                assert abs(n[a, b] - pair) <= 1e-14 * abs(pair)
        flags = n.real <= 0.0
        assert np.array_equal(
            flags, [[wk.generic_norm_eval(dom, x, y).real <= 0.0 for y in ys] for x in xs]
        )
        _, branch_ok = wk.gram_matrix(dom, 0.7, xs, require_branch=False)
        pairs = [(a, b) for a in range(len(xs)) for b in range(a, len(xs))]
        assert branch_ok == all(
            wk.generic_norm_eval(dom, xs[a], xs[b]).real > 0.0 for a, b in pairs
        )
        violations[spec] = not branch_ok
    assert violations == {
        "I:2,3": True, "I:3,3": True, "III:3": True, "IV:5": True, "CH:2": False
    }


def _explicit_matrix(dom, x):
    """Z as a matrix: p x q row-major on I, symmetric from its upper triangle on III."""
    if dom.kind == "I":
        return x.reshape(dom.params)
    n = dom.params[0]
    z = np.zeros((n, n), dtype=complex)
    z[np.triu_indices(n)] = x
    return z + np.triu(z, 1).T


@pytest.mark.parametrize("spec", ["I:2,3", "I:3,3", "I:4,5", "III:3", "III:4"])
def test_norm_matrix_matches_explicit_determinants(spec):
    # N = det(I - Z W*) on I and det(I - Z Wbar) on III, from LAPACK on the
    # explicit matrices, at sampled points scaled to each gauge and at points
    # on one complex line with phases 1.1 apart, some pairs of which have
    # Re N < 0.
    dom = wk.parse_domain(spec)
    rng = np.random.default_rng(23)
    flagged = 0
    for radius in (0.7, 0.9, 0.975):
        raw = [wk.sample(dom, rng, 0.5) for _ in range(5)]
        line = [np.exp(1j * t) * _gauge_one_point(dom) for t in (0.0, 1.1, 2.2)]
        xs = np.array([radius * x / spectral_radius(dom, x) for x in raw + line])
        ys = xs[::-1][:6]
        eye = np.eye(dom.params[0])
        zx = [_explicit_matrix(dom, x) for x in xs]
        # W* on I; Wbar on III, where W is symmetric
        wy = [_explicit_matrix(dom, y).conj() for y in ys]
        wy = [w.T for w in wy] if dom.kind == "I" else wy
        ref = np.array([[np.linalg.det(eye - z @ w) for w in wy] for z in zx])
        n = norm_matrix(dom, xs, ys)
        assert np.all(np.abs(n - ref) <= 1e-13 * np.abs(ref))
        assert np.array_equal(n.real <= 0.0, ref.real <= 0.0)
        flagged += int((ref.real <= 0.0).sum())
    assert flagged > 0
    # Outside the domain: at Z = W = I the first pivot is 0, and N is not finite.
    one = _gauge_one_point(dom)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(norm_matrix(dom, one, one)).any()


def test_norm_series_agrees_with_evaluator():
    rng = np.random.default_rng(10)
    for spec in ("I:2,2", "III:2", "IV:3", "IV:5", "CH:2"):
        dom = wk.parse_domain(spec)
        s = norm_series(dom, dom.r + 2)
        for _ in range(5):
            x = wk.sample(dom, rng, 0.5)
            y = wk.sample(dom, rng, 0.5)
            direct = wk.generic_norm_eval(dom, x, y)
            via_series = evaluate(s, x, y)
            assert via_series == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("spec", ["I:4,5", "III:5", "I:5,5"])
def test_full_norm_polynomial_matches_norm_matrix(spec):
    dom = wk.parse_domain(spec)
    s = norm_series(dom, dom.r)
    xs = np.array(wk.sample_points(dom, 2, 20, 0.6))
    ys = np.array(wk.sample_points(dom, 2, 21, 0.6))
    direct = norm_matrix(dom, xs, ys)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert evaluate(s, x, y) == pytest.approx(direct[a, b], rel=1e-12)


@pytest.mark.parametrize("spec", ["I:2,3", "I:3,3", "III:3", "III:4", "IV:5"])
def test_norm_series_below_rank_is_the_truncated_polynomial(spec):
    dom = wk.parse_domain(spec)
    full = norm_series(dom, dom.r)
    for cutoff in range(dom.r):
        s, ref = norm_series(dom, cutoff), embed(full, dom.d, cutoff)
        for got, want in zip((s.rows, s.cols, s.values), (ref.rows, ref.cols, ref.values)):
            assert np.array_equal(got, want)


def test_domains_and_info_build_no_basis_or_series(capsys):
    # A deterministic stand-in for a wall-clock bound: the full norm of
    # I:6,6 would need basis(36, 6), 9.3 million rows.
    before = (basis.cache_info(), norm_series.cache_info())
    for spec in ("I:6,6", "III:6"):
        assert wk.parse_domain(spec).r == 6
        assert main(["info", spec]) == 0
        assert main(["wallach", spec, "--lambda", "2.5"]) == 0
    assert (basis.cache_info(), norm_series.cache_info()) == before
    assert "d=36 r=6" in capsys.readouterr().out


def test_norm_series_has_no_pure_terms():
    for spec in ("I:2,2", "IV:3"):
        dom = wk.parse_domain(spec)
        s = norm_series(dom, 4)
        b = s.basis
        for j, k, v in s.items_full():
            if (j == 0) != (k == 0):
                pytest.fail(f"pure term at ({b.exponents[j]}, {b.exponents[k]}) = {v}")


def test_one_minus_norm_zero_constant():
    dom = wk.catalog("I", 2, 2)
    q = one_minus_norm(dom, 3)
    assert q.constant_term() == 0.0


# --- membership and sampling -------------------------------------------------------


def test_origin_inside_all_domains():
    for spec in ("I:2,2", "III:3", "IV:4", "CH:5"):
        dom = wk.parse_domain(spec)
        assert wk.contains(dom, np.zeros(dom.d, dtype=complex))


def test_ball_membership_cutoff():
    dom = wk.catalog("CH", 2)
    assert not wk.contains(dom, np.array([0.8, 0.7], dtype=complex))
    assert wk.contains(dom, np.array([0.5, 0.5], dtype=complex))


def test_type_iv_membership_implies_positive_norm():
    dom = wk.catalog("IV", 3)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = wk.sample(dom, rng, 0.95)
        assert wk.contains(dom, z)
        assert wk.generic_norm_eval(dom, z, z).real > 0.0


def test_sample_determinism():
    dom = wk.catalog("I", 2, 2)
    a = wk.sample(dom, 123, 0.7)
    b = wk.sample(dom, 123, 0.7)
    assert np.array_equal(a, b)


def test_sample_respects_radius_cap():
    dom = wk.catalog("I", 2, 2)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        z = wk.sample(dom, rng, 0.8)
        zm = z.reshape(2, 2)
        assert np.linalg.norm(zm, 2) <= 0.8 + 1e-12


def test_spectral_radius_gauges():
    dom = wk.catalog("IV", 3)
    rng = np.random.default_rng(13)
    for _ in range(200):
        z = wk.sample(dom, rng, 0.6)
        assert spectral_radius(dom, z) <= 0.6 + 1e-12


def _reference_gauge(dom, x):
    """Per-point gauge from its definition: the operator norm, or the Lie ball formula."""
    if dom.kind == "I":
        return np.linalg.norm(x.reshape(dom.params), 2)
    if dom.kind == "III":
        (n,) = dom.params
        z = np.zeros((n, n), dtype=complex)
        z[np.triu_indices(n)] = x
        return np.linalg.norm(z + np.triu(z, 1).T, 2)
    if dom.kind == "IV":
        t = np.vdot(x, x).real
        s = abs(np.dot(x, x))
        return np.sqrt(t + np.sqrt(max(t * t - s * s, 0.0)))
    return np.linalg.norm(x)


def test_batched_contains_matches_pointwise():
    rng = np.random.default_rng(23)
    for spec in STACK_SPECS:
        dom = wk.parse_domain(spec)
        raw = rng.standard_normal((12, dom.d)) + 1j * rng.standard_normal((12, dom.d))
        # gauges 1 - 1e-12 and 1 + 1e-12 alternate, then two clear cases
        factors = np.array([1.0 - 1e-12, 1.0 + 1e-12] * 5 + [0.3, 3.0])
        xs = np.array(
            [f * x / _reference_gauge(dom, x) for f, x in zip(factors, raw)]
        )
        inside = wk.contains(dom, xs)
        assert inside.shape == (12,)
        assert list(inside) == [bool(f < 1.0) for f in factors]
        assert list(inside) == [bool(wk.contains(dom, x)) for x in xs]
        gauges = spectral_radius(dom, xs)
        for g, x in zip(gauges, xs):
            assert g == pytest.approx(_reference_gauge(dom, x), rel=1e-14)
            assert spectral_radius(dom, x) == g


# Derandomized with no example database, as in test_spectral_properties.py;
# the fixture used alongside is a pure function.
PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
MEMBERSHIP_SPECS = ("I:2,3", "I:3,3", "I:4,4", "III:3")
# Up to 16 coordinates, enough for I:4,4; a test keeps the first d.
ENTRIES = st.lists(
    st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
    ),
    min_size=16,
    max_size=16,
)


def _matrix(dom, x):
    """A type I or III point as its matrix."""
    if dom.kind == "I":
        return x.reshape(dom.params)
    z = np.zeros((dom.params[0],) * 2, dtype=complex)
    z[np.triu_indices(dom.params[0])] = x
    return z + np.triu(z, 1).T


@PROPERTY_SETTINGS
@given(
    spec=st.sampled_from(MEMBERSHIP_SPECS),
    entries=ENTRIES,
    gauge=st.one_of(st.floats(1e-3, 1.0 - 1e-10), st.floats(1.0 + 1e-10, 1e3)),
)
def test_pivot_membership_matches_the_gauge(spec, entries, gauge):
    dom = wk.parse_domain(spec)
    raw = np.array(entries[: dom.d])
    size = _reference_gauge(dom, raw)
    assume(size > 1e-100)
    x = raw * (gauge / size)
    inside = wk.contains(dom, x)
    assert inside == (_reference_gauge(dom, x) < 1.0)
    assert wk.contains(dom, np.array([x, raw])).tolist() == [inside, wk.contains(dom, raw)]


@PROPERTY_SETTINGS
@given(
    spec=st.sampled_from(MEMBERSHIP_SPECS),
    entries=ENTRIES,
    where=st.integers(0, 15),
    unit=st.sampled_from((1.0, -1.0, 1j, -1j)),
)
def test_points_of_gauge_exactly_one_are_outside(spec, entries, where, unit):
    # Z_ij = unit with the rest of row i and column j zero (on III, i = j)
    # and the rest of Z scaled to gauge 0.9 has singular value exactly 1.
    dom = wk.parse_domain(spec)
    z = _matrix(dom, np.array(entries[: dom.d]))
    i, j = divmod(where % z.size, z.shape[1])
    j = i if dom.kind == "III" else j
    z[i, :] = z[:, j] = 0.0
    rest = np.linalg.norm(z, 2)
    if rest > 0.0:
        z *= 0.9 / rest
    z[i, j] = unit
    x = z.ravel() if dom.kind == "I" else z[np.triu_indices(len(z))]
    assert _reference_gauge(dom, x) == pytest.approx(1.0, rel=1e-14)
    assert wk.contains(dom, x) is False
    assert wk.contains(dom, np.array([x, 0.5 * x])).tolist() == [False, True]


@PROPERTY_SETTINGS
@given(
    spec=st.sampled_from(
        ("I:1,1", "I:2,3", "I:3,3", "III:1", "III:3", "IV:3", "IV:5", "CH:1", "CH:2")
    ),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 8),
    cap=st.floats(0.01, 0.99),
)
def test_sampling_matches_the_pointwise_loop(spec, seed, count, cap, pointwise_sample_points):
    dom = wk.parse_domain(spec)
    gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    points = wk.sample_points(dom, count, gen, cap)
    assert len(points) == count
    want = pointwise_sample_points(dom, count, ref, cap)
    assert np.array(points).tobytes() == np.array(want).tobytes()
    want = pointwise_sample_points(dom, 1, ref, cap)[0]
    assert wk.sample(dom, gen, cap).tobytes() == want.tobytes()
    assert gen.bytes(8) == ref.bytes(8)  # the same number of draws


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf))


@pytest.mark.parametrize("spec", ["I:2,3", "III:3", "IV:5", "CH:2"])
def test_non_finite_points_are_outside_without_a_warning(spec):
    dom = wk.parse_domain(spec)
    inside = np.array(wk.sample_points(dom, len(NON_FINITE), 3, 0.5))
    bad = inside.copy()
    for i, value in enumerate(NON_FINITE):
        bad[i, i % dom.d] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(wk.contains(dom, x) is False for x in bad)
        assert wk.contains(dom, bad).tolist() == [False] * len(bad)
        both = wk.contains(dom, np.array([bad, inside]))
    assert both.tolist() == [[False] * len(bad), [True] * len(bad)]


def test_sample_points_count():
    dom = wk.catalog("III", 2)
    pts = wk.sample_points(dom, 4, 0)
    assert len(pts) == 4
    assert all(wk.contains(dom, p) for p in pts)


# --- Wallach sets --------------------------------------------------------------------


def test_wallach_set_structure():
    dom = wk.catalog("III", 3)  # r=3, a=1
    ws = wk.wallach_set(dom)
    assert ws.discrete == (0.0, 0.5, 1.0)
    assert ws.continuous_from == 1.0


def test_wallach_membership_type_i():
    dom = wk.catalog("I", 2, 2)
    assert wk.wallach_contains(dom, 0.0)
    assert not wk.wallach_contains(dom, 0.5)
    assert wk.wallach_contains(dom, 1.0)
    assert wk.wallach_contains(dom, 1.3)
    assert not wk.wallach_contains(dom, -0.2)


def test_wallach_membership_snap_tolerance():
    dom = wk.catalog("I", 2, 2)
    assert wk.wallach_contains(dom, 1.0 - 1e-13)
    assert wk.wallach_contains(dom, 1.0 + 1e-13)
    assert not wk.wallach_contains(dom, 1.0 - 1e-9)


def test_wallach_membership_rank_one():
    dom = wk.catalog("CH", 4)
    for lam in (1e-6, 0.3, 2.0, 50.0):
        assert wk.wallach_contains(dom, lam)
    assert not wk.wallach_contains(dom, -1e-6)


def test_wallach_membership_type_iv():
    dom = wk.catalog("IV", 5)  # a=3, discrete {0, 1.5}
    assert wk.wallach_contains(dom, 1.5)
    assert not wk.wallach_contains(dom, 1.4)
    assert wk.wallach_contains(dom, 1.6)


# --- catalog validation ----------------------------------------------------------------


def test_validate_catalog_type_i():
    dom = wk.catalog("I", 2, 2)
    report = wk.validate_catalog(dom, 4)
    assert report.norm_eval_max_err <= 1e-12
    non_psd = [lam for lam, psd in zip(report.grid, report.truncated) if not psd]
    assert non_psd == pytest.approx([0.1 * k for k in range(1, 10)])


def test_validate_catalog_rank_one():
    dom = wk.catalog("CH", 1)
    report = wk.validate_catalog(dom, 6)
    assert all(report.truncated)
    assert report.closed_form == report.truncated


def test_validate_catalog_detects_corrupt_invariant():
    dom = wk.catalog("I", 2, 2)
    bad = dataclasses.replace(dom, a=1.2)
    with pytest.raises(CatalogInconsistencyError):
        wk.validate_catalog(bad, 4)
