"""Gram matrices of kernel powers and the violation search."""

import time
import warnings

import numpy as np
import pytest

import wallachkit as wk
from wallachkit import gram
from wallachkit.domains import norm_matrix, spectral_radius, upper_triangle
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
    assert res.evals_used > 1900


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
        # (found, evals_used, restarts_used, min_eigenvalue of a witness)
        ("IV:3", 0.3, 4, (True, 9, 1, -1.0070986232477216e-03)),  # found after a short descent
        ("I:2,2", 1.0, 5, (False, 468, 9, None)),  # Wallach members spend the budget
        ("III:3", 1.0, 5, (False, 468, 9, None)),
        ("IV:5", 3.0, 5, (False, 468, 9, None)),
        ("I:3,3", 1.5, 5, (False, 468, 9, None)),  # a gap the search misses
        ("III:2", 0.25, 5, (True, 1, 1, -2.5096333323175175e-04)),  # found by the first proposal
        ("CH:2", 0.5, 5, (False, 468, 9, None)),
    ],
)
def test_search_decisions_pinned(spec, lam, seed, expected):
    res = wk.search_violation(wk.parse_domain(spec), lam, budget=500, seed=seed)
    assert (res.found, res.evals_used, res.restarts_used) == expected[:3]
    if res.found:
        assert res.report.min_eigenvalue == pytest.approx(expected[3], abs=1e-12)


def test_minimize_witness_matches_reevaluation(monkeypatch):
    # reference: re-evaluate every trial configuration from scratch
    def reference(dom, lam, points, tol):
        current = list(points)
        changed = True
        while changed and len(current) > 2:
            changed = False
            for i in range(len(current)):
                trial = current[:i] + current[i + 1 :]
                val, ok = min_gram_eigenvalue(dom, lam, trial, require_branch=False)
                if ok and val < -tol:
                    current, changed = trial, True
                    break
        return np.array(current)

    for spec, lam, seed in (("I:2,2", 0.5, 2), ("III:2", 0.25, 1), ("IV:3", 0.3, 4)):
        dom = wk.parse_domain(spec)
        res = wk.search_violation(dom, lam, budget=2000, seed=seed)
        assert res.found
        # interleave extra points: the configuration stays a witness by interlacing
        extra = wk.sample_points(dom, 3, seed, 0.5)
        pts = np.array(list(res.report.points[:2]) + extra + list(res.report.points[2:]))
        for tol in (1e-6, 1e-5, 1e-4):
            monkeypatch.setattr(gram, "DEFAULT_WITNESS_TOL", tol)
            got = _minimize_witness(dom, lam, pts)
            assert np.array_equal(got, reference(dom, lam, list(pts), tol))


def test_search_argument_validation():
    dom = wk.catalog("I", 2, 2)
    with pytest.raises(ValueError):
        wk.search_violation(dom, 0.5, n_points=1)
    with pytest.raises(ValueError):
        wk.search_violation(dom, 0.5, budget=0)


def test_witness_minimization_keeps_at_least_two_points():
    dom = wk.catalog("I", 2, 2)
    res = wk.search_violation(dom, 0.5, budget=2000, seed=2)
    assert res.found
    assert 2 <= len(res.report.points) <= 6


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


def test_structured_proposals_skip_psd_blocks():
    # at a Wallach point the degree-2 guidance must be absent
    from wallachkit.gram import _quadratic_atoms

    dom = wk.catalog("I", 2, 2)
    assert _quadratic_atoms(dom, 1.0) is None
    assert _quadratic_atoms(dom, 1.5) is None
    atoms = _quadratic_atoms(dom, 0.5)
    assert atoms is not None
    pairs = {(i, j) for i, j, _ in atoms}
    assert pairs == {(0, 3), (1, 2)}  # the determinant direction


def test_structured_proposals_skip_non_finite_blocks():
    # lambda = 1e300 overflows the degree-2 block to inf: no guidance, and no
    # atom read off an inf eigendecomposition
    from wallachkit.gram import _quadratic_atoms

    assert _quadratic_atoms(wk.catalog("I", 2, 2), 1e300) is None


def test_tied_atoms_go_in_position_order():
    # On IV:5 at lambda = 1 the degree-2 witness is (z.z) / sqrt(5): five
    # atoms of |coef| 1/sqrt(5), equal up to rounding, so position decides.
    from wallachkit.gram import _quadratic_atoms

    atoms = _quadratic_atoms(wk.catalog("IV", 5), 1.0)
    assert [(i, j) for i, j, _ in atoms] == [(k, k) for k in range(5)]
    assert all(abs(abs(c) - 5**-0.5) <= 1e-12 for _, _, c in atoms)
    # Untied atoms keep the |coef| order: on III:2 the z1 z3 atom leads.
    assert [(i, j) for i, j, _ in _quadratic_atoms(wk.catalog("III", 2), 0.25)] == [(0, 2), (1, 1)]


def test_min_gram_eigenvalue_consistent_with_report():
    dom = wk.catalog("IV", 3)
    pts = wk.sample_points(dom, 5, 11, 0.6)
    val, ok = min_gram_eigenvalue(dom, 2.0, pts)
    rep = wk.gram_report(dom, 2.0, pts)
    assert rep.min_eigenvalue == val
    assert rep.psd == (val >= -1e-6)
    assert rep.branch_ok == ok


def test_restart_skips_a_flipped_proposal_equal_to_plus(monkeypatch):
    # Sign draws that all agree give the plus configuration up to a symmetry,
    # so only mixed draws earn a second structured proposal.
    proposals = []
    real = gram._structured_points

    def spy(dom, atoms, n_points, rng, scale, signs):
        proposals.append(signs)
        return real(dom, atoms, n_points, rng, scale, signs)

    monkeypatch.setattr(gram, "_structured_points", spy)
    dom = wk.catalog("I", 2, 2)
    atoms = [(0, 3, 0.7), (1, 2, -0.7)]
    seconds = []
    for seed in range(8):
        proposals.clear()
        gram._lockstep(dom, 0.5, 6, [np.random.SeedSequence(seed)], [atoms], 2)
        assert proposals[0] == (1.0, 1.0)
        seconds.append(proposals[1:])
    assert [] in seconds and any(seconds)
    assert all(len(set(s[0])) == 2 for s in seconds if s)


@pytest.mark.parametrize("budget", [1, 10, 51])
def test_search_honours_a_budget_below_one_restart(budget):
    res = wk.search_violation(wk.catalog("I", 2, 2), 1.5, budget=budget, seed=0)
    assert not res.found
    assert 1 <= res.evals_used <= budget


def test_member_search_makes_one_stacked_eigensolve_per_step(monkeypatch):
    # 1976 evaluations in 38 restarts.  A Wallach member gives no degree-2
    # guidance, so restart 0 does not run alone: all 38 advance in one
    # lockstep chunk, about 52 steps plus those of restarts whose candidates
    # left the domain, so about a hundred eigvalsh calls
    calls = []
    real = np.linalg.eigvalsh

    def counting(h):
        calls.append(h.shape)
        return real(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    res = wk.search_violation(wk.catalog("I", 2, 2), 1.0, budget=2000, seed=5)
    assert (res.found, res.evals_used, res.restarts_used) == (False, 1976, 38)
    assert len(calls) < 110


@pytest.mark.parametrize("spec", ["I:2,2", "I:2,3", "I:3,3", "III:2", "III:3", "IV:3", "CH:2"])
def test_stacked_gram_matrix_matches_single_configurations(spec):
    dom = wk.parse_domain(spec)
    stack = np.array([wk.sample_points(dom, 6, seed, 0.9) for seed in range(3)])
    if spec == "I:2,2":  # one configuration violates the branch condition
        a = 0.975 * np.exp(1j * np.pi / 6)
        b = 0.975 * np.exp(-1j * np.pi / 6)
        stack[1, :2] = [[a, 0, 0, a], [b, 0, 0, b]]
    h, ok = wk.gram_matrix(dom, 0.7, stack, require_branch=False)
    assert h.shape == (3, 6, 6) and ok.shape == (3,)
    for config, (hc, okc) in enumerate(zip(h, ok)):
        single, single_ok = wk.gram_matrix(dom, 0.7, stack[config], require_branch=False)
        assert hc.tobytes() == single.tobytes()
        assert okc == single_ok and isinstance(single_ok, bool)
    assert list(ok) == [True, spec != "I:2,2", True]
    if spec == "I:2,2":
        with pytest.raises(BranchError, match=r"pair \(0, 1\) of configuration 1"):
            wk.gram_matrix(dom, 0.7, stack)


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
            h, ok = wk.gram_matrix(dom, lam, stack, require_branch=False)
        got = h[:, rows, cols]
        assert list(ok) == [True, False, False]
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


@pytest.mark.parametrize(
    "spec, lam, seeds",
    # witnesses found by restarts 5 to 8, a miss, and a Wallach member
    [("IV:3", 0.45, (4, 7, 12)), ("I:2,2", 0.75, (4, 14)), ("I:2,2", 1.0, (0,))],
)
def test_chunked_restarts_match_one_lockstep_group(spec, lam, seeds, monkeypatch):
    # Chunks of 1 and 2 restarts give what one group of all of them gives.
    dom = wk.parse_domain(spec)
    monkeypatch.setattr(gram, "_CHUNK", 10**6)
    whole = [_record(wk.search_violation(dom, lam, budget=500, seed=s)) for s in seeds]
    assert all(r[2] > 4 for r in whole)
    for chunk in (1, 2):
        monkeypatch.setattr(gram, "_CHUNK", chunk)
        assert [_record(wk.search_violation(dom, lam, budget=500, seed=s)) for s in seeds] == whole


@pytest.mark.parametrize(
    "spec, lam, seeds",
    # the cases of test_chunked_restarts_match_one_lockstep_group
    [("IV:3", 0.45, (4, 7, 12)), ("I:2,2", 0.75, (4, 14)), ("I:2,2", 1.0, (0,))],
)
def test_step_records_do_not_depend_on_the_draw_block(spec, lam, seeds, monkeypatch):
    # A step record is the next stretch of its restart's stream however many
    # records are drawn at a time: one per step, 5, or all of them at once.
    dom = wk.parse_domain(spec)
    default = [_record(wk.search_violation(dom, lam, budget=500, seed=s)) for s in seeds]
    for steps in (1, 5, 10**6):
        monkeypatch.setattr(gram, "_DRAW_STEPS", steps)
        records = [_record(wk.search_violation(dom, lam, budget=500, seed=s)) for s in seeds]
        assert records == default


def test_huge_budget_stops_after_the_chunk_with_a_witness():
    # Restart 0 finds the witness; a budget of 1e9 (19 million restarts)
    # spawns no seeds beyond the first chunk.
    dom = wk.parse_domain("I:2,2")
    start = time.perf_counter()
    huge = wk.search_violation(dom, 0.5, budget=10**9, seed=3)
    elapsed = time.perf_counter() - start
    assert huge.found and elapsed < 2.0
    assert _record(huge) == _record(wk.search_violation(dom, 0.5, budget=2000, seed=3))


@pytest.mark.parametrize(
    "spec, lam, found",
    # a gap the search finds, a gap it misses, and a Wallach member
    [("I:2,2", 0.5, True), ("III:3", 0.75, False), ("I:2,3", 1.0, False)],
)
def test_search_decisions_match_the_gauge_and_pointwise_sampling(
    spec, lam, found, monkeypatch, pointwise_sample_points
):
    # The search as it was: membership from the SVD gauge, and random points
    # drawn and gauged one at a time.
    dom = wk.parse_domain(spec)
    record = _record(wk.search_violation(dom, lam, budget=2000, seed=9901))
    assert record[0] == found
    monkeypatch.setattr(gram, "contains", lambda dom, x: spectral_radius(dom, x) < 1.0)
    monkeypatch.setattr(gram, "sample_points", pointwise_sample_points)
    assert _record(wk.search_violation(dom, lam, budget=2000, seed=9901)) == record
