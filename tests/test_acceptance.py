"""Acceptance suite: one test per headline claim, with stated tolerances.

Each test prints a single CRITERION line so a plain `pytest -v -s` run reads
as a checklist.  Expected values come from independent closed forms computed
inside this file with exact rational arithmetic wherever possible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import wallachkit as wk


def _announce(n: int, label: str, started: float, budget_s: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed <= budget_s, f"criterion {n} exceeded {budget_s:.0f}s budget"
    print(f"CRITERION {n}: PASS ({label}, {elapsed:.1f}s)")


def generalized_binomial(lam: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= lam + i
        out /= i + 1
    return out


def test_criterion_1_wallach_gap_scan():
    # scaled determinant powers on the 2x2 matrix ball: the truncated
    # positivity scan must flag exactly the sub-threshold scales
    started = time.monotonic()
    dom = wk.catalog("I", 2, 2)
    lams = [k / 10 for k in range(1, 31)]
    rows = wk.scan_lambdas(dom, lams, 4)
    non_psd = sorted({row.lam for row in rows if not row.psd})
    assert non_psd == [k / 10 for k in range(1, 10)]

    # degree-2 oracle at lambda=1/2: block eigenvalues in closed form are
    # lam(lam+1)/2 (x4), lam(lam+1) (x5), and lam^2 - lam
    lam = Fraction(1, 2)
    eigs = [lam * (lam + 1) / 2] * 4 + [lam * (lam + 1)] * 5 + [lam * lam - lam]
    oracle_min = float(min(eigs))
    assert oracle_min < 0
    measured = [r.min_eig for r in rows if r.lam == 0.5 and r.degree == 2]
    assert len(measured) == 1
    assert abs(measured[0] - oracle_min) <= 1e-9 * abs(oracle_min)
    _announce(1, "Wallach gap scan", started, 60.0)


def test_criterion_2_rank_one_continuum():
    # every positive scale works on the ball domains, and each diagonal
    # coefficient is a generalized binomial times a multinomial weight
    started = time.monotonic()
    for d in (1, 2):
        dom = wk.catalog("CH", d)
        for tenth in range(1, 31):
            lam_exact = Fraction(tenth, 10)
            lam = tenth / 10
            s = wk.bergman_diastasis_series(dom, lam, 6)
            verdict = wk.psd_verdict(wk.graded_blocks(s))
            assert verdict.psd, (d, lam)
            for exps in map(tuple, s.basis.exponents.tolist()):
                k = sum(exps)
                if k == 0:
                    continue
                weight = math.factorial(k)
                for e in exps:
                    weight //= math.factorial(e)
                expected = float(generalized_binomial(lam_exact, k) * weight)
                got = s.coefficient(exps, exps)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (
                    d,
                    lam,
                    exps,
                )
    _announce(2, "rank-one continuum", started, 10.0)


def test_criterion_3_gram_witness_gap():
    # point-sampled Gram matrices must go non-PSD only below the threshold
    started = time.monotonic()
    dom = wk.catalog("I", 2, 2)
    for seed in range(1, 6):
        res = wk.search_violation(dom, 0.5, budget=2000, seed=seed)
        assert res.found, f"no witness at lambda=0.5, seed {seed}"
        assert res.report.min_eigenvalue < -1e-6
    for lam in (1.0, 1.5):
        for seed in range(1, 6):
            res = wk.search_violation(dom, lam, budget=2000, seed=seed)
            assert not res.found, f"false witness at lambda={lam}, seed {seed}"
    _announce(3, "Gram witness gap", started, 120.0)


def test_criterion_4_cross_path_equality(dense_blocks, assembled_reference, series_at):
    # expanding the extension potential directly must match assembling it
    # from base-domain blocks, entry for entry: at the block assembly's
    # entries, and densely against one base series per w-degree
    started = time.monotonic()
    for base_spec in ("CH:1", "I:2,2"):
        base = wk.parse_domain(base_spec)
        mus = sorted({wk.mu_einstein(base), 1.0})
        for mu in mus:
            ch = wk.CHDomain(base, mu)
            for c in (0.5, 1.0, 1.25, 2.0):
                direct = wk.ch_direct_series(ch, c, 3)
                assembled = wk.ch_block_assembly(ch, c, 3)
                reference = assembled_reference(ch, c, 3)
                wk.graded_blocks(direct)  # the direct path is graded too
                scale = max(reference.max_abs(), 1.0)
                at = series_at(direct, assembled.rows, assembled.cols)
                assert np.abs(at - assembled.values).max() <= 1e-10 * scale, (base_spec, mu, c)
                y_blocks = dense_blocks(reference)
                for degree, x in dense_blocks(direct).items():
                    diff = float(np.max(np.abs(x - y_blocks[degree])))
                    assert diff <= 1e-10 * scale, (base_spec, mu, c, degree)
    _announce(4, "cross-path equality", started, 120.0)


def test_criterion_5_extension_threshold():
    # the smallest inducible scale for the 2x2 matrix ball extension
    started = time.monotonic()
    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    assert wk.thm1_threshold(ch.base) == pytest.approx(1.25)

    v = wk.ch_projectively_induced(ch, 1.25)
    assert v.induced
    trunc = wk.psd_verdict(wk.ch_block_assembly(ch, 1.25, 4))
    assert trunc.psd

    for c in (1.0, 1.1, 1.2):
        v = wk.ch_projectively_induced(ch, c)
        assert not v.induced, c
        trunc = wk.psd_verdict(wk.ch_block_assembly(ch, c, 4))
        assert not trunc.psd, c
        negative = [b for b in trunc.per_block if b.min_eigenvalue < -b.tol]
        assert negative, f"no explicit negative block at c={c}"
    _announce(5, "extension threshold", started, 60.0)


def test_criterion_6_einstein_probe():
    # Ricci check from the potential's Taylor jet: the rank-one extension of
    # the disk is the complex hyperbolic ball, where Ric = -(n+1) g gives k = -3
    started = time.monotonic()
    ch = wk.parse_ch_spec("CHD(CH:1;mu=1)")
    rng = np.random.default_rng(11)
    ks = []
    for _ in range(5):
        zw = wk.ch_sample(ch, rng, z_radius_cap=0.35, w_fiber_cap=0.4)
        k, residual = wk.einstein_residual(ch, zw)
        assert residual <= 1e-5
        ks.append(k)
    k_mean = float(np.mean(ks))
    assert abs(k_mean + 3.0) <= 1e-4 * 3.0
    assert (max(ks) - min(ks)) <= 1e-4 * abs(k_mean)

    ch = wk.parse_ch_spec("CHD(I:2,2;mu=einstein)")
    rng = np.random.default_rng(12)
    ks = []
    for _ in range(3):
        zw = wk.ch_sample(ch, rng, z_radius_cap=0.3, w_fiber_cap=0.35)
        k, residual = wk.einstein_residual(ch, zw)
        assert residual <= 1e-4
        ks.append(k)
    k_mean = float(np.mean(ks))
    assert k_mean < 0
    assert (max(ks) - min(ks)) <= 1e-3 * abs(k_mean)
    _announce(6, "Einstein probe", started, 30.0)


def test_criterion_7_structural_invariants():
    # grading zeros, normalization, fiber-degree zeros, and immersion
    # reconstruction across a broad domain/scale grid
    started = time.monotonic()
    specs = ("I:2,2", "III:2", "IV:3", "IV:5", "CH:1", "CH:2")
    for spec in specs:
        dom = wk.parse_domain(spec)
        for lam in (0.5, 1.0, 1.7, 2.5):
            s = wk.bergman_diastasis_series(dom, lam, 4)
            assert wk.normalization_check(s), (spec, lam)
            cm = wk.calabi_matrix(dom, lam, 4)
            assert cm.off_grade_max <= 1e-13 * max(1.0, cm.max_abs_coeff)
            verdict = wk.psd_verdict(cm)
            if verdict.psd:
                comps = wk.extract_immersion(cm)
                err = wk.immersion_reconstruction_error(comps, s)
                assert err <= 1e-10, (spec, lam)

    for ch_spec, c in (("CHD(I:2,2;mu=0.8)", 1.25), ("CHD(CH:1;mu=1)", 1.5)):
        ch = wk.parse_ch_spec(ch_spec)
        s = wk.ch_direct_series(ch, c, 3)
        assert wk.normalization_check(s)
        b = s.basis
        scale = max(s.max_abs(), 1.0)
        for j, k, v in s.items_full():
            if b.exponents[j, -1] != b.exponents[k, -1]:
                assert abs(v) <= 1e-13 * scale, (ch_spec, j, k)
    _announce(7, "structural invariants", started, 120.0)
