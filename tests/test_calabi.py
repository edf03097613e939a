"""Graded Calabi blocks against an exact-rational expansion oracle.

For the 2x2 matrix ball the kernel det(I - Z W*)^(-lam) expands by hand:
with Q = tr(Z W*) - det(Z) conj(det(W)) and (1-Q)^(-lam) = 1 + lam Q
+ lam(lam+1)/2 Q^2 + ..., collecting bidegree (2,2) terms gives an explicit
10x10 degree-2 block whose eigenvalues are rational functions of lam.  The
oracle below builds that block with Fraction arithmetic, independently of
the series code.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import wallachkit as wk
from wallachkit import calabi, cartan_hartogs as chm, multiindex, series as hs
from wallachkit.calabi import GradingError, scan_lambdas
from wallachkit.domains import norm_series, one_minus_norm, symmetries
from wallachkit.multiindex import MemoryLimitError, basis
from wallachkit.series import from_terms, inverse_power


# --- exact degree-2 oracle for TypeI(2,2) -------------------------------------


def degree2_block_oracle(lam: Fraction) -> dict[tuple[tuple, tuple], Fraction]:
    """Coefficients at bidegree (2,2) of det(I - Z W*)^(-lam), exact.

    Monomial basis in z = (z1, z2, z3, z4) for Z = [[z1, z2], [z3, z4]]
    row-major.  Sources: lam*Q contributes -lam * det(Z) conj(det(W));
    (lam)(lam+1)/2 * Q^2 contributes the square of the trace term.
    """
    c2 = lam * (lam + 1) / 2
    block: dict[tuple[tuple, tuple], Fraction] = {}

    def bump(h, a, v):
        key = (tuple(h), tuple(a))
        block[key] = block.get(key, Fraction(0)) + v

    # (tr Z W*)^2 = sum_{i,j} z_i z_j wbar_i wbar_j: diagonal in monomials,
    # multiplicity 2 when i != j, 1 when i == j
    for i in range(4):
        for j in range(4):
            h = [0, 0, 0, 0]
            h[i] += 1
            h[j] += 1
            bump(h, h, c2)
    # -lam (z1 z4 - z2 z3)(wbar1 wbar4 - wbar2 wbar3)
    det_h = [((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]
    for hm, hs in det_h:
        for am, asn in det_h:
            bump(hm, am, -lam * hs * asn)
    return block


def oracle_eigenvalues(lam: Fraction) -> list[float]:
    """Eigenvalues of the oracle block: lam(lam+1)/2 x4, lam(lam+1) x4,
    lam^2 + lam and lam^2 - lam from the det-coupled pair."""
    half = lam * (lam + 1) / 2
    full = lam * (lam + 1)
    plus = lam * lam + lam
    minus = lam * lam - lam
    return sorted(float(v) for v in [half] * 4 + [full] * 4 + [plus, minus])


def oracle_matrix(lam: Fraction) -> np.ndarray:
    """Assemble the oracle block as a dense matrix in the engine's basis order."""
    b = basis(4, 2)
    sl = b.degree_slice(2)
    exps = list(map(tuple, b.exponents[sl].tolist()))
    pos = {e: i for i, e in enumerate(exps)}
    m = np.zeros((len(exps), len(exps)))
    for (h, a), v in degree2_block_oracle(lam).items():
        m[pos[h], pos[a]] = float(v)
    return m


def test_oracle_self_consistent():
    # the closed-form eigenvalue list matches the assembled matrix
    lam = Fraction(1, 2)
    vals = np.linalg.eigvalsh(oracle_matrix(lam))
    assert vals == pytest.approx(oracle_eigenvalues(lam), abs=1e-14)


# --- diastasis series ----------------------------------------------------------


def test_rank_one_geometric_series():
    dom = wk.catalog("CH", 1)
    s = wk.bergman_diastasis_series(dom, 1.0, 5)
    for k in range(1, 6):
        assert s.coefficient((k,), (k,)) == pytest.approx(1.0, rel=1e-14)
    assert s.constant_term() == 0.0


def test_lambda_zero_gives_zero_series():
    dom = wk.catalog("I", 2, 2)
    assert wk.bergman_diastasis_series(dom, 0.0, 3).is_zero()


def test_degree_one_coefficients_equal_lambda():
    dom = wk.catalog("I", 2, 2)
    lam = 0.7
    s = wk.bergman_diastasis_series(dom, lam, 2)
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        assert s.coefficient(tuple(e), tuple(e)) == pytest.approx(lam, rel=1e-14)


def test_type_iii_degree_one_weights():
    # tr(Z Wbar) on symmetric 2x2 weights the off-diagonal coordinate twice
    dom = wk.catalog("III", 2)
    s = wk.bergman_diastasis_series(dom, 0.5, 2)
    assert s.coefficient((1, 0, 0), (1, 0, 0)) == pytest.approx(0.5)
    assert s.coefficient((0, 1, 0), (0, 1, 0)) == pytest.approx(1.0)
    assert s.coefficient((0, 0, 1), (0, 0, 1)) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "spec, lams",
    [
        ("I:2,2", [0.0, -0.5, 0.5, 1.0, 1.5]),
        ("I:2,3", [0.0, -0.5, 0.5, 1.0, 1.5]),
        ("I:3,3", [0.0, -0.5, 0.5, 1.0, 1.5]),
        ("III:3", [0.0, -0.5, 0.5, 1.0, 1.5]),
        ("IV:5", [0.0, -0.5, 0.5, 1.0, 1.5]),
        ("IV:6", [0.0, -0.5, 0.5, 1.0, 2 + 1e-7]),
        ("CH:3", [0.0, -0.5, 0.5, 1.0, 1.5]),
    ],
)
def test_recurrence_matches_power_expansion(spec, lams):
    # The Euler-operator recurrence against sum_k C(lam+k-1, k) Q^k at cutoff 7:
    # the same nonzero entries, including the exact zeros at Wallach points.
    dom = wk.parse_domain(spec)
    for lam in lams:
        got = wk.bergman_diastasis_series(dom, lam, 7)
        ref = inverse_power(one_minus_norm(dom, 7), lam)
        assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.cols, ref.cols)
        assert np.abs(got.values - ref.values).max(initial=0.0) <= 1e-12 * ref.max_abs()


def test_i33_cutoff8_series_memory():
    # The power expansion peaks at 97 MiB here; the recurrence plan, formed in
    # batches, keeps two int64 indices per pair it sums.
    dom = wk.parse_domain("I:3,3")
    tracemalloc.start()
    try:
        s = wk.bergman_diastasis_series(dom, 0.75, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s.values) > 100_000
    assert peak < 64 * 2**20


class _StopAtLevel(Exception):
    pass


def _plan_estimates(monkeypatch, stop=None):
    """The (bytes, what) of every plan guard call, in order; the one whose
    message names level stop raises _StopAtLevel instead of checking."""
    calls = []

    def guard(need, what):
        calls.append((need, what))
        if f"level {stop} " in what:
            raise _StopAtLevel
        multiindex.check_memory(need, what)

    monkeypatch.setattr(hs, "check_memory", guard)
    return calls


def test_i33_cutoff11_plan_estimate_is_under_the_limit(monkeypatch):
    # The compile's first guard call, before any level is built, charges
    # level 11's estimate, the largest, and stops: each pair kept holds two
    # int64 indices, and the level forms 27.6 M more, so the estimate is
    # about 1.1 GB.
    calls = _plan_estimates(monkeypatch, stop=11)
    with pytest.raises(_StopAtLevel):
        hs.compile_recurrence(norm_series(wk.parse_domain("I:3,3"), 11))
    need, what = calls[-1]
    assert what == "a recurrence plan's level 11 (27577944 pairs formed, 9061065 kept)"
    assert need == hs.KEPT_PAIR_BYTES * 9061065 + hs.PLAN_PAIR_BYTES * 27577944
    assert need < multiindex.MEMORY_LIMIT_BYTES


def test_i33_cutoff12_is_refused_before_any_level_is_built(monkeypatch):
    # Level 12 would form 64.9 M pairs on top of 23.4 M kept, about 2.7 GB:
    # the pair counts of every level follow from the weight components, so
    # the first guard call refuses, with the message level 12's own would give.
    calls = _plan_estimates(monkeypatch)
    refusal = r"level 12 \(64905660 pairs formed, 23397012 kept\) needs about 2\.7 GB"
    with pytest.raises(MemoryLimitError, match=refusal):
        hs.compile_recurrence(norm_series(wk.parse_domain("I:3,3"), 12))
    assert len(calls) == 1


@pytest.mark.parametrize("spec, cutoff", [("I:3,3", 9), ("IV:6", 8)])
def test_plan_estimate_bounds_the_traced_peak_within_2x(monkeypatch, spec, cutoff):
    dom = wk.parse_domain(spec)
    norm_series(dom, cutoff)  # cached, so the peak is the recurrence's alone
    calls = _plan_estimates(monkeypatch)
    tracemalloc.start()
    try:
        wk.bergman_diastasis_series(dom, 0.75, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One charge per compile, before any level is built.
    assert len(calls) == 1
    estimate = calls[0][0]
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("spec, cutoff", [("I:3,3", 9), ("IV:6", 8)])
def test_reduced_plan_estimate_bounds_the_traced_peak_within_2x(monkeypatch, spec, cutoff):
    # A single verdict's matrix: the compile under the domain's symmetries,
    # which forms every pair but keeps those into representatives, and its replay.
    dom = wk.parse_domain(spec)
    norm_series(dom, cutoff)  # cached, so the peak is the recurrence's alone
    calls = _plan_estimates(monkeypatch)
    tracemalloc.start()
    try:
        wk.calabi_matrix(dom, 0.75, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    estimate = calls[0][0]
    assert peak <= estimate <= 2 * peak


def test_top_gap_of_i66_is_refused_before_any_basis_sized_stage():
    # basis(36, 6) holds 5.2 M positions.  Labelling their weight components,
    # mapping them into their representatives and ranking alpha + gamma for
    # N's gammas would take about 3.8 GB, so the guard refuses from the basis
    # size before those stages or the norm's terms are computed.  A child
    # process keeps the 1.5 GB basis out of the test session.
    code = (
        "import sys\n"
        "from wallachkit import series as hs\n"
        "from wallachkit.cli import main\n"
        "def stage(*args):\n"
        "    raise AssertionError('a stage ran before the charge')\n"
        "hs._norm_terms = hs._weight_components = hs._orbits = stage\n"
        "sys.exit(main(['calabi', 'I:6,6', '--lambda', '4.5', '--cutoff', '6']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1, done.stderr
    assert "36 variables needs about 3.8 GB" in done.stderr
    assert "AssertionError" not in done.stderr


def test_scan_matches_single_verdicts():
    # lambda = k/8 takes in 0, negative scales, the Wallach points, and on
    # IV:6 the scale 1.5, where the recurrence sums to an exact zero.  A
    # scale's pass on the scan's cached layout gives every field of the
    # single verdict but the witness, which a scan does not solve for.
    lams = [k / 8 for k in range(-4, 33)]
    cases = [("III:3", 7), ("I:2,2", 6), ("IV:5", 5), ("IV:6", 6)]
    cases += [("I:2,3", 5), ("CH:2", 8), ("III:2", 6)]
    fields = ("degree", "dim", "min_eigenvalue", "rank", "tol", "components",
              "largest_component", "solved_components")
    for spec, cutoff in cases:
        dom = wk.parse_domain(spec)
        rows = scan_lambdas(dom, lams, cutoff)
        plan, layout = calabi._scan_plan(dom, cutoff)
        for lam in lams:
            verdict = wk.psd_verdict(wk.calabi_matrix(dom, lam, cutoff))
            scanned, _ = calabi._spectral_pass(layout, plan.values(lam), witnesses=False)
            assert [[getattr(bv, f) for f in fields] for bv in scanned] == [
                [getattr(bv, f) for f in fields] for bv in verdict.per_block
            ], (spec, lam)
            got = [(r.degree, r.block_dim, r.min_eig, r.psd) for r in rows if r.lam == lam]
            want = [
                (bv.degree, bv.dim, bv.min_eigenvalue, bv.min_eigenvalue >= -bv.tol)
                for bv in verdict.per_block
            ]
            assert got == want, (spec, lam)


def test_components_at_lambda_zero_are_the_plans():
    # N^0 - 1 is all exact zeros, which stay in the matrix's pattern: lambda
    # = 0 solves the components of every other scale, not one per position.
    dom = wk.parse_domain("I:3,3")
    fields = ("components", "largest_component", "solved_components")
    zero = wk.calabi_matrix(dom, 0.0, 4)
    at_zero, at_other = wk.psd_verdict(zero), wk.psd_verdict(wk.calabi_matrix(dom, 0.37, 4))
    assert at_zero.psd and len(zero.values) and not zero.values.any()
    assert [[getattr(bv, f) for f in fields] for bv in at_zero.per_block] == [
        [getattr(bv, f) for f in fields] for bv in at_other.per_block
    ]
    assert [bv.components for bv in at_zero.per_block][1:] == [36, 100, 225]


# --- normalization --------------------------------------------------------------


def test_normalization_holds_for_catalog_series():
    for spec, lam in [("I:2,2", 0.5), ("III:2", 1.7), ("IV:3", 0.9), ("CH:2", 1.0)]:
        dom = wk.parse_domain(spec)
        s = wk.bergman_diastasis_series(dom, lam, 4)
        assert wk.normalization_check(s)


def test_normalization_rejects_pure_terms():
    s = from_terms(1, 2, {((1,), (0,)): 1.0, ((1,), (1,)): 1.0})
    assert not wk.normalization_check(s)


# --- graded blocks ---------------------------------------------------------------


def test_rank_one_blocks_are_unit_scalars(dense_blocks):
    dom = wk.catalog("CH", 1)
    blocks = dense_blocks(wk.bergman_diastasis_series(dom, 1.0, 4))
    assert [len(b) for b in blocks.values()] == [1, 1, 1, 1]
    for b in blocks.values():
        assert b[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_block_one_is_lambda_identity(dense_blocks):
    dom = wk.catalog("I", 2, 2)
    b1 = dense_blocks(wk.bergman_diastasis_series(dom, 0.8, 2))[1]
    assert b1.shape == (4, 4)
    assert np.allclose(b1, 0.8 * np.eye(4), atol=1e-14)


def test_degree2_block_matches_exact_oracle(dense_blocks):
    dom = wk.catalog("I", 2, 2)
    for lam in (Fraction(1, 2), Fraction(3, 4), Fraction(2)):
        b2 = dense_blocks(wk.bergman_diastasis_series(dom, float(lam), 2))[2]
        assert b2.shape == (10, 10)
        assert np.max(np.abs(b2 - oracle_matrix(lam))) <= 1e-13
        got = np.linalg.eigvalsh(b2)
        assert got == pytest.approx(oracle_eigenvalues(lam), abs=1e-12)


def test_off_grade_is_rounding_level():
    for spec in ("I:2,2", "III:2", "IV:5"):
        dom = wk.parse_domain(spec)
        cm = wk.calabi_matrix(dom, 0.6, 4)
        assert cm.off_grade_max <= 1e-13 * max(cm.max_abs_coeff, 1e-300)


def test_graded_blocks_rejects_unnormalized():
    s = from_terms(1, 2, {((1,), (0,)): 1.0})
    with pytest.raises(ValueError):
        wk.graded_blocks(s)


def test_graded_blocks_flags_genuine_off_grade():
    s = from_terms(2, 2, {((1, 0), (1, 1)): 0.5, ((1, 0), (1, 0)): 1.0})
    with pytest.raises(GradingError):
        wk.graded_blocks(s)


# --- verdicts ---------------------------------------------------------------------


def test_verdict_gap_point_refuted():
    dom = wk.catalog("I", 2, 2)
    v = wk.psd_verdict(wk.calabi_matrix(dom, 0.5, 2))
    assert not v.psd
    assert v.certainty == "refuted"
    neg = [b for b in v.per_block if b.min_eigenvalue < -b.tol]
    assert [b.degree for b in neg] == [2]
    assert neg[0].min_eigenvalue == pytest.approx(-0.25, rel=1e-12)
    # the witness direction is the determinant direction in degree 2
    b = basis(4, 2)
    sl = b.degree_slice(2)
    exps = list(map(tuple, b.exponents[sl].tolist()))
    w = neg[0].witness
    i14, i23 = exps.index((1, 0, 0, 1)), exps.index((0, 1, 1, 0))
    overlap = abs(w[i14] - w[i23]) / np.sqrt(2)
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_verdict_discrete_point_rank_deficient():
    dom = wk.catalog("I", 2, 2)
    v = wk.psd_verdict(wk.calabi_matrix(dom, 1.0, 3))
    assert v.psd
    assert v.certainty == "consistent-to-cutoff"
    by_degree = {b.degree: b for b in v.per_block}
    assert by_degree[2].rank == 9  # the determinant direction degenerates
    assert by_degree[1].rank == 4


def test_verdict_continuous_part_psd():
    dom = wk.catalog("I", 2, 2)
    v = wk.psd_verdict(wk.calabi_matrix(dom, 8.0, 3))
    assert v.psd


def test_negative_lambda_fails_at_degree_one():
    dom = wk.catalog("IV", 3)
    v = wk.psd_verdict(wk.calabi_matrix(dom, -0.5, 2))
    assert not v.psd
    worst = min(v.per_block, key=lambda b: b.min_eigenvalue / max(b.tol, 1e-300))
    assert v.per_block[0].degree == 1
    assert v.per_block[0].min_eigenvalue < 0


def test_non_psd_persists_at_higher_cutoff():
    dom = wk.catalog("I", 2, 2)
    for cutoff in (2, 3, 4):
        v = wk.psd_verdict(wk.calabi_matrix(dom, 0.5, cutoff))
        assert not v.psd


def test_sign_change_at_wallach_boundary():
    dom = wk.catalog("I", 2, 2)
    v_below = wk.psd_verdict(wk.calabi_matrix(dom, 0.99, 3))
    v_at = wk.psd_verdict(wk.calabi_matrix(dom, 1.0, 3))
    v_above = wk.psd_verdict(wk.calabi_matrix(dom, 1.01, 3))
    assert not v_below.psd
    assert v_at.psd and v_above.psd


def test_type_iii_gap_and_discrete_point():
    dom = wk.catalog("III", 2)  # a=1, discrete Wallach points {0, 0.5}
    assert not wk.psd_verdict(wk.calabi_matrix(dom, 0.25, 4)).psd
    assert wk.psd_verdict(wk.calabi_matrix(dom, 0.5, 4)).psd


# --- immersion extraction -----------------------------------------------------------


def test_immersion_rank_one_components_are_monomials():
    dom = wk.catalog("CH", 1)
    comps = wk.extract_immersion(wk.calabi_matrix(dom, 1.0, 4))
    assert [c.degree for c in comps] == [0, 1, 2, 3, 4]
    assert comps[0].coeffs == {(0,): 1.0}  # the constant component f_0
    for c in comps[1:]:
        assert len(c.coeffs) == 1
        ((exp, coef),) = c.coeffs.items()
        assert exp == (c.degree,)
        assert abs(coef) == pytest.approx(1.0, rel=1e-12)


def test_immersion_reconstruction_residual():
    dom = wk.catalog("I", 2, 2)
    cm = wk.calabi_matrix(dom, 1.5, 3)
    comps = wk.extract_immersion(cm)
    s = wk.bergman_diastasis_series(dom, 1.5, 3)
    assert wk.immersion_reconstruction_error(comps, s) <= 1e-10


def test_immersion_component_count_equals_rank():
    dom = wk.catalog("I", 2, 2)
    cm = wk.calabi_matrix(dom, 1.0, 2)
    v = wk.psd_verdict(cm)
    comps = wk.extract_immersion(cm)
    per_degree = {b.degree: b.rank for b in v.per_block}
    for degree in per_degree:
        n = sum(1 for c in comps if c.degree == degree)
        assert n == per_degree[degree]


def test_immersion_rejects_non_psd():
    dom = wk.catalog("I", 2, 2)
    with pytest.raises(ValueError):
        wk.extract_immersion(wk.calabi_matrix(dom, 0.5, 2))


# --- scans -----------------------------------------------------------------------


def test_scan_rows_structure():
    dom = wk.catalog("I", 2, 2)
    lams = [0.5, 1.0]
    rows = scan_lambdas(dom, lams, 3)
    assert len(rows) == 2 * 3
    assert [r.lam for r in rows[:3]] == [0.5] * 3
    assert [r.degree for r in rows[:3]] == [1, 2, 3]
    at_half_deg2 = next(r for r in rows if r.lam == 0.5 and r.degree == 2)
    assert at_half_deg2.min_eig == pytest.approx(-0.25, rel=1e-12)
    assert not at_half_deg2.psd
    assert at_half_deg2.block_dim == 10


def test_scan_plan_path_refuses_bad_tolerances_and_overflow():
    dom = wk.catalog("III", 3)
    plan, _ = calabi._scan_plan(dom, 4)
    assert plan.values(0.75) is not None  # the scan reads the plan here
    values = plan.values(1e300)
    assert values is not None and not np.isfinite(values).all()
    with pytest.raises(RuntimeError, match="non-finite coefficients"):
        scan_lambdas(dom, [1e300], 4)


def test_scan_plan_is_charged_to_the_memory_guard(monkeypatch):
    # Reduced to its orbit representatives, III:3 at cutoff 7 forms 15 166
    # pairs at level 7 while the levels below it keep 5 042: 888 488 bytes
    # at 16 a pair kept and 36 a pair formed, with 261 840 for the tables of
    # the basis's size.
    monkeypatch.setattr(calabi, "_SCAN_PLAN_CACHE", {})
    monkeypatch.setattr(multiindex, "MEMORY_LIMIT_BYTES", 7 * 10**5)
    refusal = r"recurrence plan's level 7 \(15166 pairs formed, 5042 kept\)"
    with pytest.raises(MemoryLimitError, match=refusal):
        scan_lambdas(wk.parse_domain("III:3"), [0.75], 7)
    assert not calabi._SCAN_PLAN_CACHE


# --- weight components against the dense eigensolve ---------------------------------


def _dense_block_verdicts(blocks, tol_abs=1e-10, tol_rel=1e-9):
    """Reference: one dense eigh per graded block, the pre-component verdict."""
    out = []
    for matrix in blocks.values():
        vals = np.linalg.eigvalsh(matrix)
        scale = float(np.max(np.abs(matrix)))
        tol = max(tol_abs, tol_rel * scale)
        out.append((vals[0], int(np.count_nonzero(vals > tol)), scale))
    return out


@pytest.mark.parametrize(
    "spec, lams, cutoff",
    [
        ("I:2,2", (0.0, 0.5, 1.0, 1.5, 2.0), 4),  # discrete points 0 and 1
        ("I:2,3", (0.5, 1.0, 1.25), 4),
        ("I:3,3", (0.5, 1.0, 1.5, 2.0), 3),  # discrete points 0, 1, 2
        ("III:2", (0.25, 0.5, 1.0), 4),
        ("III:3", (0.5, 0.75, 1.0), 4),
        ("IV:3", (0.3, 0.5, 1.0), 5),  # discrete points 0 and 1/2
        ("IV:5", (1.0, 1.5, 2.0), 4),
        ("CH:2", (0.2, 1.0), 5),
    ],
)
def test_component_verdict_matches_dense_eigh(spec, lams, cutoff, dense_blocks):
    dom = wk.parse_domain(spec)
    for lam in lams:
        s = wk.bergman_diastasis_series(dom, lam, cutoff)
        v = wk.psd_verdict(wk.graded_blocks(s))
        blocks = dense_blocks(s)
        dense = _dense_block_verdicts(blocks)
        assert v.psd == all(min_eig >= -bv.tol for (min_eig, _, _), bv in zip(dense, v.per_block))
        assert v.psd == wk.wallach_contains(dom, lam)
        assert [bv.degree for bv in v.per_block] == list(blocks)
        for bv, block, (min_eig, rank, scale) in zip(v.per_block, blocks.values(), dense):
            assert bv.rank == rank, (spec, lam, bv.degree)
            assert bv.tol == max(1e-10, 1e-9 * scale)
            assert abs(bv.min_eigenvalue - min_eig) <= 1e-13 * max(scale, 1e-300)
            assert bv.dim == len(block)
            assert 1 <= bv.largest_component <= bv.dim
            assert bv.components >= bv.dim / bv.largest_component
            if bv.witness is not None:
                w = bv.witness
                assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
                residual = block @ w - bv.min_eigenvalue * w
                assert np.max(np.abs(residual)) <= 1e-12 * scale


def test_i33_cutoff7_blocks_and_verdict_stay_sparse():
    # The 6435-wide top block would alone take 331 MB as a dense array; the
    # COO blocks and the stacked components need a few MB.
    s = inverse_power(one_minus_norm(wk.parse_domain("I:3,3"), 7), 1.5)
    tracemalloc.start()
    try:
        verdict = wk.psd_verdict(wk.graded_blocks(s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.psd
    assert verdict.per_block[-1].dim == 6435
    assert peak < 32 * 2**20


def test_verdict_runs_one_eigvalsh_per_component_size(monkeypatch):
    # III:3 at cutoff 7 has 42 (degree, component size) pairs but 14 sizes;
    # eigenvectors are solved only for each refuted degree's witness component.
    dom = wk.parse_domain("III:3")
    refuted, member = wk.calabi_matrix(dom, 0.75, 7), wk.calabi_matrix(dom, 1.0, 7)
    calls = []

    def counted(name, solve):
        def call(a):
            calls.append((name, a.shape))
            return solve(a)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    verdict = wk.psd_verdict(refuted)
    stacks = [shape for name, shape in calls if name == "eigvalsh"]
    singles = [shape for name, shape in calls if name == "eigh"]
    assert len(stacks) == len({shape[-1] for shape in stacks}) == 14
    assert all(len(shape) == 3 for shape in stacks)
    # One component per S_3 orbit: 80 of the 371 are solved.
    assert sum(shape[0] for shape in stacks) == 80
    assert sum(bv.solved_components for bv in verdict.per_block) == 80
    assert sum(bv.components for bv in verdict.per_block) == 371
    negative = [bv for bv in verdict.per_block if bv.witness is not None]
    assert not verdict.psd and len(singles) == len(negative) >= 1
    assert all(len(shape) == 2 for shape in singles)
    calls.clear()
    assert wk.psd_verdict(member).psd
    assert [name for name, _ in calls] == ["eigvalsh"] * 14
    calls.clear()
    # Every eigenvector is read, of each representative, and stands for its orbit.
    components = wk.extract_immersion(member)
    assert [name for name, _ in calls] == ["eigh"] * 14
    assert sum(shape[0] for _, shape in calls) == 80
    assert len(components) == 1 + sum(bv.rank for bv in wk.psd_verdict(member).per_block)


@pytest.mark.parametrize(
    "spec, lam, cutoff",
    [("III:3", 0.75, 7), ("I:2,2", 0.5, 5), ("IV:5", 1.0, 5), ("I:2,3", 0.25, 4), ("CH:2", -0.5, 6)],
)
def test_refuted_witness_is_a_unit_eigenvector_on_one_component(spec, lam, cutoff, dense_blocks):
    s = wk.bergman_diastasis_series(wk.parse_domain(spec), lam, cutoff)
    verdict = wk.psd_verdict(wk.graded_blocks(s))
    blocks = dense_blocks(s)
    refuted = [bv for bv in verdict.per_block if bv.witness is not None]
    assert refuted and all(bv.min_eigenvalue < -bv.tol for bv in refuted)
    for bv in refuted:
        block, w = blocks[bv.degree], bv.witness
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        # The support lies inside the connected component of its first position.
        reach, frontier = set(), {int(np.flatnonzero(w)[0])}
        while frontier:
            reach |= frontier
            frontier = {int(j) for i in frontier for j in np.flatnonzero(block[i])} - reach
        assert set(np.flatnonzero(w).tolist()) <= reach
        assert len(reach) <= bv.largest_component
        scale = float(np.max(np.abs(block)))
        assert np.linalg.norm(block @ w - bv.min_eigenvalue * w) <= 1e-12 * scale


def test_values_only_and_eigenvector_passes_pick_the_same_witnesses():
    # Component minima equal in exact arithmetic (on I:3,3 a 6-wide and a
    # 3-wide component in different orbits) come out of eigvalsh and eigh
    # with different rounding; the witness must not follow that rounding.
    lams = [k / 8 for k in range(-4, 33)]
    for spec, cutoff in (("I:3,3", 5), ("III:3", 6), ("I:2,3", 5), ("IV:5", 5), ("CH:2", 6)):
        dom = wk.parse_domain(spec)
        plan, layout = calabi._scan_plan(dom, cutoff)
        b = basis(dom.d, cutoff)
        label = calabi._labels(plan.rows, plan.cols, len(b))
        for lam in lams:
            values = plan.values(lam)
            by_values, _ = calabi._spectral_pass(layout, values)
            by_vectors, _ = calabi._spectral_pass(layout, values, vectors=True)
            for bv, bw in zip(by_values, by_vectors, strict=True):
                assert (bv.witness is None) == (bw.witness is None), (spec, lam, bv.degree)
                if bv.witness is not None:
                    # The component of each witness's largest entry.
                    at = b.degree_slice(bv.degree).start
                    picked = [label[at + np.argmax(np.abs(w))] for w in (bv.witness, bw.witness)]
                    assert picked[0] == picked[1], (spec, lam, bv.degree)


# --- orbits under the coordinate permutations ----------------------------------------


def _plan_matrix(dom, lam, cutoff, generators=()):
    """calabi_matrix with the recurrence compiled under the given generators:
    without any, the unreduced matrix of every component."""
    plan = hs.compile_recurrence(norm_series(dom, cutoff), generators)
    values = plan.values(lam)
    return calabi.CalabiMatrix(dom.spec_string, lam, dom.d, cutoff, plan.rows, plan.cols, values,
                               0.0, float(np.abs(values).max(initial=0.0)), plan.orbits)


def _assert_orbits_change_nothing(m, full):
    """The verdict on m, which solves one component per orbit, against the
    one on full, which solves all; returns the numbers of components solved
    and of components."""
    reduced, trivial = wk.psd_verdict(m), wk.psd_verdict(full)
    assert reduced.psd == trivial.psd
    degrees = basis(full.n_vars, full.cutoff).degrees[full.rows]
    for r, t in zip(reduced.per_block, trivial.per_block, strict=True):
        fields = ("degree", "dim", "rank", "tol", "components", "largest_component")
        assert [getattr(r, f) for f in fields] == [getattr(t, f) for f in fields]
        assert t.solved_components == t.components >= r.solved_components >= 1
        scale = float(np.abs(full.values[degrees == r.degree]).max(initial=0.0))
        assert abs(r.min_eigenvalue - t.min_eigenvalue) <= 1e-13 * max(scale, 1e-300)
    return sum(bv.solved_components for bv in reduced.per_block), sum(
        bv.components for bv in reduced.per_block
    )


@pytest.mark.parametrize(
    "spec, cutoff",
    [("III:3", 5), ("I:2,2", 5), ("IV:5", 4), ("IV:6", 4), ("I:2,3", 4), ("CH:2", 6),
     ("III:2", 5), ("I:3,3", 4)],
)
def test_orbit_verdicts_match_trivial_orbits(spec, cutoff):
    # lambda = k/8 from -0.5 to 4: 0, negative scales and the Wallach points.
    # The reference compiles the recurrence without permutations.
    dom = wk.parse_domain(spec)
    for lam in [k / 8 for k in range(-4, 33)]:
        m = wk.calabi_matrix(dom, lam, cutoff)
        solved, components = _assert_orbits_change_nothing(m, _plan_matrix(dom, lam, cutoff))
        assert solved < components


@pytest.mark.parametrize(
    "spec, cs",
    [("CHD(I:2,2;mu=einstein)", (0.5, 1.0, 1.25)), ("CHD(III:2;mu=einstein)", (0.25, 1.0, 2.0)),
     ("CHD(IV:3;mu=1)", (0.2, 0.5, 1.5))],
)
def test_orbit_verdicts_match_trivial_orbits_on_hartogs_assemblies(spec, cs, assembled_reference):
    # The reference writes the assembly's own values out to every component
    # of each orbit and solves every component; those values are checked
    # against one base series per w-degree apart.
    ch = chm.parse_ch_spec(spec)
    b = basis(ch.n_vars, 5)
    for c in cs:
        m = chm.ch_block_assembly(ch, c, 5)
        gens = m.orbits.generators
        assert gens and all(g[-1] == ch.base.d for g in gens)  # w stays put
        full = _orbits_written_out(m)
        solved, components = _assert_orbits_change_nothing(m, full)
        assert solved < components
        ref = assembled_reference(ch, c, 5)
        scale = np.zeros(6)
        np.maximum.at(scale, b.degrees[ref.rows], np.abs(ref.values))
        written = hs.from_entries(ch.n_vars, 5, full.rows, full.cols, full.values)
        diff = hs.linear_combination((written, ref), (1.0, -1.0))
        assert (np.abs(diff.values) <= 1e-13 * scale[b.degrees[diff.rows]]).all(), c


def _orbits_written_out(m):
    """m with each representative's entries copied to every component of its
    orbit (calabi._orbit_exponents), every component its own orbit."""
    b = basis(m.n_vars, m.cutoff)
    o = m.orbits
    rows, cols, vals = [], [], []
    for start, size, count in zip(np.cumsum(o.sizes) - o.sizes, o.sizes, o.counts):
        positions = o.positions[start : start + size]
        mine = np.isin(m.rows, positions)
        j, k = np.searchsorted(positions, m.rows[mine]), np.searchsorted(positions, m.cols[mine])
        for exps in calabi._orbit_exponents(b, positions, o.generators, count):
            image = b.rank(exps)
            rows.append(np.minimum(image[j], image[k]))
            cols.append(np.maximum(image[j], image[k]))
            vals.append(m.values[mine])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    return calabi.CalabiMatrix(m.domain_spec, m.lam, m.n_vars, m.cutoff, rows, cols, vals, 0.0,
                               m.max_abs_coeff, calabi._label_orbits(m.n_vars, m.cutoff, rows, cols))


def test_immersion_of_a_hartogs_assembly_expands_its_orbits(assembled_reference):
    # The assembly's matrix carries the base's permutations: the immersion
    # solves the representatives and writes each eigenvector out once per
    # component of its orbit, as many per degree as solving every component.
    ch = chm.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    s = assembled_reference(ch, 1.25, 5)
    comps = wk.extract_immersion(chm.ch_block_assembly(ch, 1.25, 5))
    full = wk.extract_immersion(wk.graded_blocks(s))
    assert sorted(c.degree for c in comps) == sorted(c.degree for c in full)
    assert wk.immersion_reconstruction_error(comps, s) <= 1e-10


_REDUCTION_CASES = [("I:2,2", 6), ("I:2,3", 5), ("I:3,3", 5), ("III:2", 6), ("III:3", 6),
                    ("IV:3", 6), ("IV:5", 5), ("IV:6", 6), ("CH:2", 8)]


@pytest.mark.parametrize("spec, cutoff", _REDUCTION_CASES)
def test_reduced_plan_equals_the_full_plan_on_its_representatives(spec, cutoff):
    # The reduced replay at each representative entry is the full replay
    # there, and the full replay is invariant under every generator, so each
    # entry left out equals its canonical image in a representative.
    dom = wk.parse_domain(spec)
    n = norm_series(dom, cutoff)
    full, reduced = hs.compile_recurrence(n), hs.compile_recurrence(n, symmetries(dom))
    b = basis(dom.d, cutoff)
    m = len(b)
    keys = full.rows * m + full.cols
    at = np.searchsorted(keys, reduced.rows * m + reduced.cols)
    assert np.array_equal(keys[at], reduced.rows * m + reduced.cols)
    images = []
    for g in reduced.orbits.generators:
        p, q = (b.rank(b.exponents[x][:, list(g)]) for x in (full.rows, full.cols))
        images.append(np.searchsorted(keys, np.minimum(p, q) * m + np.maximum(p, q)))
    degrees = b.degrees[full.rows]
    for lam in [k / 8 for k in range(-4, 33)]:
        values = full.values(lam)
        scale = np.zeros(cutoff + 1)
        np.maximum.at(scale, degrees, np.abs(values))
        bound = 1e-13 * np.maximum(scale[degrees], 1e-300)
        assert (np.abs(reduced.values(lam) - values[at]) <= bound[at]).all(), lam
        for image in images:
            assert (np.abs(values[image] - values) <= bound).all(), lam


@pytest.mark.parametrize(
    "spec, cutoff, entries, pairs", [("III:3", 7, 1799, 13444), ("I:3,3", 6, 982, 6764)]
)
def test_reduced_plan_sizes_are_sums_over_representatives(spec, cutoff, entries, pairs):
    # Per component of the full plan: its entries and the pairs it keeps into
    # them.  Both are the same on every component of an orbit, so the reduced
    # plan's counts, the sums over representatives, fix no choice of member.
    dom = wk.parse_domain(spec)
    n = norm_series(dom, cutoff)
    full, reduced = hs.compile_recurrence(n), hs.compile_recurrence(n, symmetries(dom))
    b = basis(dom.d, cutoff)
    label = hs._labels(full.rows, full.cols, len(b))
    maps = [label[b.rank(b.exponents[:, list(g)])] for g in reduced.orbits.generators]
    orbit = hs._labels(np.tile(label, len(maps)), np.concatenate(maps), len(b))
    target = np.concatenate([level[4] + at for level, at in zip(
        full.levels, np.cumsum([0] + [level[5] for level in full.levels[:-1]]))])
    per_entries = np.bincount(label[full.rows], minlength=len(b))
    per_pairs = np.bincount(label[full.rows[target]], minlength=len(b))
    for counts in (per_entries, per_pairs):
        for o in np.unique(orbit[label[1:]]):
            members = np.unique(label[1:][orbit[label[1:]] == o])
            assert len(set(counts[members].tolist())) == 1, (spec, o)
    reps = np.unique(label[reduced.rows])
    assert len(reduced.rows) == per_entries[reps].sum() == entries
    assert sum(len(level[3]) for level in reduced.levels) == per_pairs[reps].sum() == pairs


@pytest.mark.parametrize(
    "spec, cutoff, formed, unreduced",
    [("IV:6", 8, 208023, 795180), ("I:3,3", 6, 11695, 152118), ("III:3", 7, 23731, 95822),
     ("I:2,3", 7, 4203, 27828)],
)
def test_a_reduced_compile_forms_only_the_pairs_into_representatives(spec, cutoff, formed, unreduced):
    # Reduced, the compile pairs a term with the entries of the source
    # components whose image under it is a representative, and no others.
    n = norm_series(wk.parse_domain(spec), cutoff)
    assert hs.compile_recurrence(n, symmetries(wk.parse_domain(spec))).sizes()["pairs_formed"] == formed
    assert hs.compile_recurrence(n).sizes()["pairs_formed"] == unreduced


def _block_record(bv):
    witness = None if bv.witness is None else bv.witness.tobytes()
    return (bv.degree, bv.dim, bv.min_eigenvalue, bv.rank, bv.tol, witness,
            bv.components, bv.largest_component, bv.solved_components)


def test_a_permutation_that_does_not_fix_the_kernel_is_ignored():
    # z11 <-> z12 on I:2,2 does not fix N: it sends the 2-wide
    # {z11 z22, z12 z21} to two components.  The compile drops it.
    swap = (1, 0, 2, 3)
    dom = wk.parse_domain("I:2,2")
    fixing = symmetries(dom)
    for lam in (-0.25, 0.5, 1.0, 1.5):
        for gens, used in [((swap,), ()), (fixing + (swap,), fixing)]:
            m = _plan_matrix(dom, lam, 5, gens)
            assert m.orbits.generators == used
            got = wk.psd_verdict(m)
            want = wk.psd_verdict(_plan_matrix(dom, lam, 5, used))
            assert got.psd == want.psd
            assert [_block_record(bv) for bv in got.per_block] == [
                _block_record(bv) for bv in want.per_block
            ]
