"""Gram matrices of kernel powers and the design search for violations."""

import time
import warnings

import numpy as np
import pytest

import wallachkit as wk
from wallachkit import gram
from wallachkit.domains import norm_matrix, upper_triangle
from wallachkit.gram import BranchError, _minimize_witness, _witness_threshold, min_gram_eigenvalue


def test_single_point_positive():
    dom = wk.catalog("CH", 1)
    h, ok = wk.gram_matrix(dom, 1.3, [np.array([0.4 + 0.1j])])
    assert ok
    assert h.shape == (1, 1)
    assert h[0, 0].real > 0 and h[0, 0].imag == 0


def test_lambda_zero_all_ones():
    dom = wk.catalog("I", 2, 2)
    pts = wk.sample_points(dom, 4, 0, 0.6)
    h, _ = wk.gram_matrix(dom, 0.0, pts)
    assert np.allclose(h, np.ones((4, 4)))
    vals = np.linalg.eigvalsh(h)
    assert vals[-1] == pytest.approx(4.0) and abs(vals[0]) <= 1e-14


def test_unit_disk_hand_matrix():
    dom = wk.catalog("CH", 1)
    pts = [np.array([0j]), np.array([0.5 + 0j])]
    h, ok = wk.gram_matrix(dom, 1.0, pts)
    assert ok
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.allclose(h, expected, atol=1e-14)
    assert np.linalg.eigvalsh(h)[0] > 0


def test_hermitian_exact():
    dom = wk.catalog("III", 2)
    pts = wk.sample_points(dom, 5, 1, 0.6)
    h, _ = wk.gram_matrix(dom, 0.7, pts)
    assert np.array_equal(h, h.conj().T)


def test_diagonal_at_least_one():
    dom = wk.catalog("IV", 4)
    pts = wk.sample_points(dom, 6, 2, 0.7)
    h, _ = wk.gram_matrix(dom, 1.2, pts)
    assert np.all(np.diag(h).real >= 1.0 - 1e-14)


def test_common_phase_invariance():
    dom = wk.catalog("I", 2, 2)
    pts = wk.sample_points(dom, 4, 3, 0.6)
    h0, _ = wk.gram_matrix(dom, 0.8, pts)
    ph = np.exp(0.9j)
    h1, _ = wk.gram_matrix(dom, 0.8, [ph * p for p in pts])
    assert np.max(np.abs(h0 - h1)) <= 1e-12


def test_branch_flag_on_wild_pair():
    # diagonal points tuned so det(I - Z W*) has negative real part
    dom = wk.catalog("I", 2, 2)
    a = 0.975 * np.exp(1j * np.pi / 6)
    b = 0.975 * np.exp(-1j * np.pi / 6)
    za = np.array([a, 0, 0, a])
    zb = np.array([b, 0, 0, b])
    assert wk.contains(dom, za) and wk.contains(dom, zb)
    with pytest.raises(BranchError):
        wk.gram_matrix(dom, 0.5, [za, zb])
    _, ok = wk.gram_matrix(dom, 0.5, [za, zb], require_branch=False)
    assert not ok


def test_branch_error_names_first_pair_row_major():
    dom = wk.catalog("I", 2, 2)
    a = 0.975 * np.exp(1j * np.pi / 6)
    b = 0.975 * np.exp(-1j * np.pi / 6)
    pts = [np.array([v, 0, 0, v]) for v in (0.1, a, 0.2j, b, a, b)]
    bad = [
        (i, j)
        for i in range(len(pts))
        for j in range(i, len(pts))
        if wk.generic_norm_eval(dom, pts[i], pts[j]).real <= 0.0
    ]
    assert len(bad) > 1
    with pytest.raises(BranchError, match=rf"pair \({bad[0][0]}, {bad[0][1]}\)"):
        wk.gram_matrix(dom, 0.5, pts)


def test_nan_norm_is_a_branch_violation():
    # A NaN coordinate makes N NaN, which is not in the right half-plane.
    dom = wk.catalog("I", 2, 2)
    pts = [wk.sample(dom, 0), np.array([np.nan, 0, 0, 0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BranchError, match=r"pair \(0, 1\): N = \(?nan"):
            wk.gram_matrix(dom, 0.7, pts)
        with pytest.raises(BranchError, match=r"pair \(0, 1\)"):
            min_gram_eigenvalue(dom, 0.7, pts)
        _, ok = wk.gram_matrix(dom, 0.7, pts, require_branch=False)
    assert ok is False


def test_search_finds_witness_in_gap():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 0.5, budget=2000, seed=1)
    assert res.found
    assert res.report.min_eigenvalue < -1e-6
    assert not res.report.psd
    assert res.report.branch_ok
    assert res.evals_used <= 2000


def test_search_agrees_with_block_verdict():
    # a found witness must be matched by a non-PSD truncated verdict
    dom = wk.catalog("III", 2)
    res = wk.search_violation(dom, 0.25, budget=2000, seed=1)
    assert res.found
    assert not wk.psd_verdict(wk.calabi_matrix(dom, 0.25, 4)).psd


def test_search_empty_handed_in_continuous_part():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 1.5, budget=1000, seed=1)
    assert not res.found
    assert res.report is None


@pytest.mark.parametrize(
    "spec, lam",
    [
        ("I:2,2", 5.0),
        ("I:2,2", 20.0),
        ("I:2,2", 50.0),
        ("III:2", 20.0),
        ("IV:3", 30.0),
        ("CH:2", 40.0),
    ],
)
def test_no_witness_for_wallach_members_with_large_entries(spec, lam):
    # Gram entries N^(-lambda) reach 1e17 and beyond here; eigenvalues at
    # rounding level relative to them are not witnesses.
    dom = wk.parse_domain(spec)
    assert wk.wallach_contains(dom, lam)
    res = wk.search_violation(dom, lam, 6, 2000, seed=0)
    assert not res.found
    # every design is evaluated at every scale; rank 1 has none
    assert res.restarts_used == dom.r - 1
    assert res.evals_used == len(gram._SCALES) * res.restarts_used


def test_witness_rule_is_relative_to_largest_entry():
    dom = wk.catalog("I", 2, 2)
    pts = wk.sample_points(dom, 6, 0, 0.7)
    h, _ = wk.gram_matrix(dom, 5.0, pts)
    scale = np.abs(h).max()
    assert scale > 10.0
    assert _witness_threshold(h) == -1e-6 * scale
    # below unit scale the threshold stays absolute
    assert _witness_threshold(np.eye(2) * 0.1) == -1e-6
    # an overflowing Gram matrix has no finite threshold
    assert not np.isfinite(_witness_threshold(np.array([[np.inf, 1.0], [1.0, 1.0]])))
    assert not np.isfinite(_witness_threshold(np.array([[np.nan, 1.0], [1.0, 1.0]])))


def test_search_empty_handed_rank_one():
    dom = wk.catalog("CH", 2)
    res = wk.search_violation(dom, 0.3, budget=300, seed=4)
    assert not res.found


def test_search_deterministic():
    dom = wk.catalog("I", 2, 2)
    a = wk.search_violation(dom, 0.5, budget=500, seed=7)
    b = wk.search_violation(dom, 0.5, budget=500, seed=7)
    assert a.found == b.found
    assert a.report.min_eigenvalue == b.report.min_eigenvalue
    for p, q in zip(a.report.points, b.report.points):
        assert np.array_equal(p, q)


@pytest.mark.parametrize(
    "spec, lam, seed, expected",
    [
        # (found, evals_used, restarts_used, min_eigenvalue of a witness);
        # the seed steers nothing
        ("IV:3", 0.3, 4, (True, 1, 1, -1.7555190288506362e-03)),  # at t = 0.6
        ("I:2,2", 1.0, 5, (False, 5, 1, None)),  # Wallach members evaluate every design
        ("III:3", 1.0, 5, (False, 10, 2, None)),
        ("IV:5", 3.0, 5, (False, 5, 1, None)),
        ("I:3,3", 1.5, 5, (True, 8, 2, -2.481402011043293e-03)),  # k = 3, t = 0.4
        ("III:2", 0.25, 5, (True, 1, 1, -5.141287403247683e-03)),
        ("CH:2", 0.5, 5, (False, 0, 0, None)),  # rank 1: no design
    ],
)
def test_search_decisions_pinned(spec, lam, seed, expected):
    res = wk.search_violation(wk.parse_domain(spec), lam, budget=500, seed=seed)
    assert (res.found, res.evals_used, res.restarts_used) == expected[:3]
    if res.found:
        assert res.report.min_eigenvalue == pytest.approx(expected[3], abs=1e-12)


def test_minimize_witness_matches_reevaluation(monkeypatch):
    # reference: re-evaluate every trial configuration from scratch and
    # apply the witness rule to it
    def reference(dom, lam, points):
        current = list(points)
        changed = True
        while changed and len(current) > 2:
            changed = False
            for i in range(len(current)):
                trial = current[:i] + current[i + 1 :]
                h, ok = wk.gram_matrix(dom, lam, trial, require_branch=False)
                if ok and np.linalg.eigvalsh(h)[0] < _witness_threshold(h):
                    current, changed = trial, True
                    break
        return np.array(current)

    cases = []
    searches = (("I:2,2", 0.5, 2), ("III:2", 0.25, 1), ("IV:3", 0.3, 4), ("I:3,3", 1.5, 5))
    for spec, lam, seed in searches:
        dom = wk.parse_domain(spec)
        res = wk.search_violation(dom, lam, budget=2000, seed=seed)
        assert res.found
        # interleave extra points: the configuration stays a witness by interlacing
        extra = wk.sample_points(dom, 3, seed, 0.5)
        points = list(res.report.points[:2]) + extra + list(res.report.points[2:])
        cases.append((dom, lam, np.array(points)))
    for dom, lam, pts in cases:
        # at tolerance 1 it is no witness, and no point may go
        h, _ = wk.gram_matrix(dom, lam, pts)
        for tol in (1e-6, 1e-5, 1e-4, 1.0):
            monkeypatch.setattr(gram, "DEFAULT_WITNESS_TOL", tol)
            got = pts[_minimize_witness(h)]
            assert np.array_equal(got, reference(dom, lam, list(pts)))
            assert tol < 1.0 or len(got) == len(pts)
    # Dropping point 0 lowers the largest |entry|, and so relaxes the
    # threshold: that drop leaves a witness under the trial's own threshold
    # (with a 21 % margin), not under the whole configuration's.
    disc = wk.catalog("CH", 1)
    pts = np.array(wk.sample_points(disc, 3, 186, 0.9))
    monkeypatch.setattr(gram, "DEFAULT_WITNESS_TOL", 0.1)
    got = pts[_minimize_witness(wk.gram_matrix(disc, -1.0, pts)[0])]
    assert np.array_equal(got, reference(disc, -1.0, list(pts)))
    assert np.array_equal(got, pts[1:])


def test_search_argument_validation():
    dom = wk.catalog("I", 2, 2)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            wk.search_violation(dom, 0.5, budget=budget)
    # n_points and seed steer nothing
    plain = _record(wk.search_violation(dom, 0.5))
    assert _record(wk.search_violation(dom, 0.5, n_points=1, seed=99)) == plain


def test_witness_minimization_keeps_at_least_two_points():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 0.5, budget=2000, seed=2)
    assert res.found
    assert 2 <= len(res.report.points) < 8  # the design has 8 points
    # At lambda = -1 on the disc every two distinct points are a witness:
    # det [N(x_a, x_b)] = -|x - y|^2.  Minimization stops at two.
    disc = wk.catalog("CH", 1)
    points = np.array([[0.1], [0.3j], [-0.2], [0.4 + 0.1j], [0.0]])
    assert len(points[_minimize_witness(wk.gram_matrix(disc, -1.0, points)[0])]) == 2


def test_witness_payload_schema_and_replay():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 0.5, budget=2000, seed=3)
    payload = wk.witness_payload(dom, res)
    assert set(payload) == {"domain", "lambda", "points", "min_eig", "seed"}
    assert payload["domain"] == "I:2,2"
    assert payload["seed"] == 3
    for point in payload["points"]:
        assert all(len(pair) == 2 for pair in point)
    dom2, report, drift = wk.replay_witness(payload)
    assert dom2.spec_string == "I:2,2"
    assert drift <= 1e-12
    assert report.min_eigenvalue < -1e-6


def test_witness_payload_requires_success():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 1.5, budget=200, seed=1)
    with pytest.raises(ValueError):
        wk.witness_payload(dom, res)


@pytest.mark.parametrize(
    "points, min_eig, field",
    [
        ([[[0.1, 0.0]] * 4], float("nan"), "min_eig"),
        ([[[0.1, 0.0]] * 4], float("inf"), "min_eig"),
        ([[[0.1, 0.0]] * 4], float("-inf"), "min_eig"),
        ([], -1.0, "points"),
        ([[[0.1, 0.0]] * 4, [[0.0, 0.0]] * 3], -1.0, "points"),
    ],
)
def test_replay_refuses_a_malformed_witness(points, min_eig, field):
    payload = {"domain": "I:2,2", "lambda": 0.5, "points": points, "min_eig": min_eig, "seed": 0}
    with pytest.raises(ValueError, match=f"witness field '{field}'"):
        wk.replay_witness(payload)


def test_min_gram_eigenvalue_consistent_with_report():
    dom = wk.catalog("IV", 3)
    pts = wk.sample_points(dom, 5, 11, 0.6)
    val, ok = min_gram_eigenvalue(dom, 2.0, pts)
    rep = wk.gram_report(dom, 2.0, pts)
    assert rep.min_eigenvalue == val
    assert rep.psd == (val >= -1e-6)
    assert rep.branch_ok == ok


@pytest.mark.parametrize("budget", [1, 10, 51])
def test_search_honours_a_budget_below_one_restart(budget):
    # budget is the largest design tried; I:2,2 has one, of 8 points
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 1.5, budget=budget, seed=0)
    assert not res.found
    tried = int(budget >= 8)
    assert (res.restarts_used, res.evals_used) == (tried, len(gram._SCALES) * tried)
    assert wk.search_violation(dom, 0.5, budget=budget).found == bool(tried)


def test_member_search_makes_one_stacked_eigensolve_per_step(monkeypatch):
    # One step per scale of each design: on III:3 the 8 points of k = 2,
    # then the 64 of k = 3, each at five scales, one eigvalsh apiece.
    calls = []
    real = np.linalg.eigvalsh

    def counting(h):
        calls.append(h.shape)
        return real(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    res = wk.search_violation(wk.catalog("III", 3), 1.0, budget=2000, seed=5)
    assert (res.found, res.evals_used, res.restarts_used) == (False, 10, 2)
    assert calls == [(8, 8)] * 5 + [(64, 64)] * 5


@pytest.mark.parametrize(
    "spec, lam, evals",
    # a witness at k = 3 and t = 0.4; one at the first scale; a Wallach member
    [("I:3,3", 1.5, 8), ("IV:5", 1.0, 1), ("III:3", 1.0, 10)],
)
def test_search_makes_one_gram_evaluation_per_scale(monkeypatch, spec, lam, evals):
    # The shrink and the report read the Gram matrix of the scale that gave
    # the witness; neither evaluates the norm again.
    calls = []
    real = gram.norm_matrix

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(gram, "norm_matrix", counting)
    res = wk.search_violation(wk.parse_domain(spec), lam)
    assert res.evals_used == len(calls) == evals


@pytest.mark.parametrize("spec", ["I:2,2", "I:2,3", "I:3,3", "III:2", "III:3", "IV:3", "CH:2"])
def test_gram_matrix_refuses_a_stack_of_configurations(spec):
    # One evaluation is one (k, d) configuration: a (3, 6, d) stack, a lone
    # point and points of the wrong length are refused before any work.
    dom = wk.parse_domain(spec)
    stack = np.array([wk.sample_points(dom, 6, seed, 0.9) for seed in range(3)])
    if spec == "I:2,2":  # one configuration violates the branch condition
        a = 0.975 * np.exp(1j * np.pi / 6)
        b = 0.975 * np.exp(-1j * np.pi / 6)
        stack[1, :2] = [[a, 0, 0, a], [b, 0, 0, b]]
    for bad in (stack, stack[0, 0], stack[0, :, :-1]):
        with pytest.raises(ValueError, match=rf"needs \(k, {dom.d}\) points, got shape"):
            wk.gram_matrix(dom, 0.7, bad, require_branch=False)
    flags = [wk.gram_matrix(dom, 0.7, config, require_branch=False)[1] for config in stack]
    assert flags == [True, spec != "I:2,2", True]
    assert all(isinstance(flag, bool) for flag in flags)
    if spec == "I:2,2":
        with pytest.raises(BranchError, match=r"pair \(0, 1\): N"):
            wk.gram_matrix(dom, 0.7, stack[1])


@pytest.mark.parametrize("spec", ["I:2,3", "III:3", "IV:4", "CH:2"])
def test_real_power_matches_the_complex_logarithm(spec):
    # Configuration 1 has a NaN coordinate; configuration 2 holds a pair with
    # N = 0 (0.5 e_0 and 2 e_0 on every kind) and a point outside the domain.
    dom = wk.parse_domain(spec)
    stack = np.array([wk.sample_points(dom, 6, seed, 0.9) for seed in range(3)])
    stack[1, 3, 0] = np.nan
    stack[2, :2] = 0.0
    stack[2, :2, 0] = 0.5, 2.0
    rows, cols = upper_triangle(6)
    nv = norm_matrix(dom, stack[:, rows, None, :], stack[:, cols, None, :])[..., 0, 0]
    for lam in (0.3, 2.5, 40.0):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log = np.log(nv)
            reference = np.exp(-lam * log)
            evaluated = [wk.gram_matrix(dom, lam, c, require_branch=False) for c in stack]
        got = np.array([h[rows, cols] for h, _ in evaluated])
        assert [ok for _, ok in evaluated] == [True, False, False]
        finite = np.isfinite(reference)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.count_nonzero(~finite) == 7  # the NaN point's six pairs and the zero pair
        # Rounding -lam Log N to doubles moves either form by about
        # lam |Log N| eps, which passes 1e-14 at lam = 40.
        tol = 1e-14 + 4 * np.finfo(float).eps * lam * np.abs(log[finite])
        # the diagonal keeps the real part
        ref = np.where(rows == cols, reference.real, reference)[finite]
        assert np.all(np.abs(got[finite] - ref) <= tol * np.abs(ref))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for config in (1, 2):
                with pytest.raises(BranchError, match=r"pair \(\d, \d\)"):
                    wk.gram_matrix(dom, lam, stack[config])


def _record(res):
    points = None if res.report is None else np.array(res.report.points).tobytes()
    min_eig = None if res.report is None else res.report.min_eigenvalue
    return res.found, res.evals_used, res.restarts_used, min_eig, points


# The two tests below keep the names of the descent's grouping tests and
# check the design path on their (spec, lambda) rows: a gap found at k = 2,
# a second gap, and a Wallach member.
GROUPING_ROWS = [("IV:3", 0.45, (4, 7, 12)), ("I:2,2", 0.75, (4, 14)), ("I:2,2", 1.0, (0,))]


@pytest.mark.parametrize("spec, lam, seeds", GROUPING_ROWS)
def test_chunked_restarts_match_one_lockstep_group(spec, lam, seeds):
    # The search reports a witness from the rows and columns of the Gram
    # matrix it already evaluated; that gives, bit for bit, the report of a
    # fresh evaluation of the witness points.
    dom = wk.parse_domain(spec)
    res = wk.search_violation(dom, lam, budget=2000, seed=seeds[0])
    assert res.found == (lam < 1.0)  # only I:2,2 at 1 is a member
    if res.found:
        got, fresh = res.report, wk.gram_report(dom, lam, res.report.points)
        assert np.array(got.points).tobytes() == np.array(fresh.points).tobytes()
        min_eigs = np.array([got.min_eigenvalue, fresh.min_eigenvalue])
        assert min_eigs[0].tobytes() == min_eigs[1].tobytes()
        assert (got.psd, got.branch_ok) == (fresh.psd, fresh.branch_ok) == (False, True)


@pytest.mark.parametrize("spec, lam, seeds", GROUPING_ROWS)
def test_step_records_do_not_depend_on_the_draw_block(spec, lam, seeds):
    # The design search draws no random numbers: every seed gives the
    # record of the default seed, and numpy's global generator is untouched.
    dom = wk.parse_domain(spec)
    state = np.random.get_state()[1].copy()
    default = _record(wk.search_violation(dom, lam, budget=500))
    records = [_record(wk.search_violation(dom, lam, budget=500, seed=s)) for s in seeds]
    assert records == [default] * len(seeds)
    assert np.array_equal(np.random.get_state()[1], state)


def test_huge_budget_stops_after_the_chunk_with_a_witness():
    # The k = 2 design of I:3,3 holds the witness at lambda = 0.5 at its
    # first scale, so a budget of 1e9 points builds no larger design.
    dom = wk.parse_domain("I:3,3")
    start = time.perf_counter()
    huge = wk.search_violation(dom, 0.5, budget=10**9, seed=3)
    elapsed = time.perf_counter() - start
    assert huge.found and elapsed < 2.0
    assert (huge.restarts_used, huge.evals_used) == (1, 1)
    assert _record(huge) == _record(wk.search_violation(dom, 0.5, budget=2000, seed=3))


@pytest.mark.parametrize(
    "spec, sizes",
    # points of the design at k = 2, 3, ...: 2^k k! on I, 8, 64, 608 on III,
    # 4n on IV at k = 2, none on CH
    [
        ("I:2,3", [8]),
        ("I:4,4", [8, 48, 384]),
        ("III:4", [8, 64, 608]),
        ("IV:5", [20]),
        ("CH:3", []),
    ],
)
def test_designs_have_their_orbit_sizes(spec, sizes):
    dom = wk.parse_domain(spec)
    designs = [gram._design(dom, k, 10**6) for k in range(2, dom.r + 1)]
    assert [len(x) for x in designs if x is not None] == sizes
    for design in designs[: len(sizes)]:
        assert len({p.tobytes() for p in design}) == len(design)  # distinct points
        assert wk.contains(dom, max(gram._SCALES) * design).all()
    if sizes:  # a design over the budget is not built
        assert gram._design(dom, dom.r, sizes[-1] - 1) is None
        assert len(gram._design(dom, dom.r, sizes[-1])) == sizes[-1]


# Gaps of every Wallach set up to rank 3, and its members: each discrete
# point, the threshold plus 0.25 and plus 2, and lambda = 10.
DESIGN_GAPS = {
    "I:2,2": (0.5, 0.75),
    "I:2,3": (0.5, 0.75),
    "I:3,3": (0.5, 1.5, 1.75),
    "III:2": (0.25, 0.375),
    "III:3": (0.25, 0.75, 0.875),
    "IV:3": (0.25, 0.375),
    "IV:5": (0.75, 1.125),
    "IV:6": (1.0, 1.5),
}


@pytest.mark.parametrize("spec", sorted(DESIGN_GAPS))
def test_design_search_finds_every_gap_and_no_member(spec):
    dom = wk.parse_domain(spec)
    for lam in DESIGN_GAPS[spec]:
        res = wk.search_violation(dom, lam)
        assert res.found, (spec, lam)
        assert not res.report.psd and res.report.branch_ok
    ws = wk.wallach_set(dom)
    for lam in ws.discrete + (ws.continuous_from + 0.25, ws.continuous_from + 2.0, 10.0):
        assert wk.wallach_contains(dom, lam)
        assert not wk.search_violation(dom, lam).found, (spec, lam)
