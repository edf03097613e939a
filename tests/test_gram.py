"""Gram matrices of kernel powers and the violation search."""

import numpy as np
import pytest

import wallachkit as wk
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
    assert _witness_threshold(h, 1e-6) == -1e-6 * scale
    # below unit scale the threshold stays absolute
    assert _witness_threshold(np.eye(2) * 0.1, 1e-6) == -1e-6
    # an overflowing Gram matrix has no finite threshold
    assert not np.isfinite(_witness_threshold(np.array([[np.inf, 1.0], [1.0, 1.0]]), 1e-6))
    assert not np.isfinite(_witness_threshold(np.array([[np.nan, 1.0], [1.0, 1.0]]), 1e-6))


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
        ("IV:3", 0.3, 4, (True, 27, 1)),  # a gap, found after a short descent
        ("I:2,2", 1.0, 5, (False, 468, 9)),  # Wallach members spend the budget
        ("III:3", 1.0, 5, (False, 468, 9)),
        ("IV:5", 3.0, 5, (False, 468, 9)),
    ],
)
def test_search_decisions_pinned(spec, lam, seed, expected):
    res = wk.search_violation(wk.parse_domain(spec), lam, budget=500, seed=seed)
    assert (res.found, res.evals_used, res.restarts_used) == expected
    if res.found:
        assert res.report.min_eigenvalue == pytest.approx(-6.520963610356445e-05, abs=1e-12)


def test_minimize_witness_matches_reevaluation():
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
            got = _minimize_witness(dom, lam, pts, tol)
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


def test_min_gram_eigenvalue_consistent_with_report():
    dom = wk.catalog("IV", 3)
    pts = wk.sample_points(dom, 5, 11, 0.6)
    val, ok = min_gram_eigenvalue(dom, 2.0, pts)
    rep = wk.gram_report(dom, 2.0, pts)
    assert rep.min_eigenvalue == val
    assert rep.psd == (val >= -1e-6)
    assert rep.branch_ok == ok
