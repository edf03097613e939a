"""End-to-end command-line checks through main(argv)."""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wallachkit import calabi, domains, multiindex
from wallachkit import series as hs
from wallachkit.cartan_hartogs import ch_projectively_induced, parse_ch_spec
from wallachkit.cli import UsageError, _scan_grid, build_parser, main
from wallachkit.domains import norm_series, parse_domain, symmetries, wallach_contains, wallach_set
from wallachkit.series import compile_recurrence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_info_lists_invariants(capsys):
    code, out, _ = run(capsys, "info", "I:2,2")
    assert code == 0
    assert "d=4" in out and "r=2" in out and "a=2" in out and "gamma=4" in out
    assert "{0, 1}" in out and "(1, inf)" in out


def test_wallach_membership(capsys):
    code, out, _ = run(capsys, "wallach", "CH:3", "--lambda", "0.01")
    assert code == 0
    assert "member=True" in out
    code, out, _ = run(capsys, "wallach", "I:2,2", "--lambda", "0.5")
    assert code == 0
    assert "member=False" in out
    # The text prints lambda exactly, not rounded onto the Wallach point 1.
    code, out, _ = run(capsys, "wallach", "I:3,3", "--lambda", "0.9999999999")
    assert (code, out) == (0, "I:3,3, lambda=0.9999999999: member=False\n")


def test_calabi_refuted_case(capsys):
    code, d, _ = run_json(
        capsys, "calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3"
    )
    assert code == 0  # refutation agrees with closed form
    v = d["verdicts"]
    assert v["wallach_member"] is False
    assert v["truncated_psd"] is False
    assert v["certainty"] == "refuted"
    assert v["min_eigenvalue"] == pytest.approx(-0.25, rel=1e-12)
    assert d["agreement"] is True
    assert d["duration_s"] > 0
    degrees = [b["degree"] for b in d["per_block"]]
    assert degrees == [1, 2, 3]


def test_calabi_c_flag_scales_by_gamma(capsys):
    # --c 0.25 on gamma=4 means lambda=1, a Wallach point
    code, d, _ = run_json(capsys, "calabi", "I:2,2", "--c", "0.25", "--cutoff", "3")
    assert code == 0
    assert d["parameters"]["lambda"] == pytest.approx(1.0)
    assert d["verdicts"]["truncated_psd"] is True


def test_gram_witness_file_and_replay(capsys, tmp_path):
    wpath = tmp_path / "witness.json"
    code, d, _ = run_json(
        capsys,
        "gram",
        "I:2,2",
        "--lambda",
        "0.5",
        "--budget",
        "2000",
        "--witness-out",
        str(wpath),
    )
    assert code == 0
    assert d["verdicts"]["witness_found"] is True
    assert d["verdicts"]["min_eigenvalue"] < -1e-6

    payload = json.loads(wpath.read_text())
    assert sorted(payload) == ["domain", "lambda", "min_eig", "points", "seed"]
    assert payload["domain"] == "I:2,2"
    assert payload["lambda"] == 0.5

    code, d, _ = run_json(capsys, "replay", str(wpath))
    assert code == 0
    assert d["verdicts"]["within_tolerance"] is True
    assert abs(d["verdicts"]["drift"]) <= 1e-12
    assert d["verdicts"]["branch_ok"] is True


def test_replay_of_an_overflowing_witness_names_the_gram_matrix(capsys, tmp_path):
    wpath = tmp_path / "witness.json"
    points = [[[0.3, 0.1], [0.0, 0.0], [0.0, 0.0], [0.2, 0.0]], [[0.0, 0.0]] * 4]
    wpath.write_text(
        json.dumps(
            {"domain": "I:2,2", "lambda": 1e300, "points": points, "min_eig": -1.0, "seed": 0}
        )
    )
    code, out, err = run(capsys, "replay", str(wpath))
    assert code == 1
    assert out == ""
    assert "Gram matrix" in err and "lambda = 1e+300" in err and "non-finite" in err


def test_gram_no_witness_in_wallach_set(capsys):
    code, d, _ = run_json(capsys, "gram", "I:2,2", "--lambda", "1.5", "--budget", "300")
    assert code == 0
    assert d["verdicts"]["witness_found"] is False
    assert d["parameters"] == {"lambda": 1.5, "budget": 300}


def test_gram_design_witness_round_trips(capsys, tmp_path):
    # The rank-3 gap of I:3,3, which no sampled search had found: the k = 3
    # design of 48 points gives the witness.
    wpath = tmp_path / "w.json"
    code, d, _ = run_json(
        capsys, "gram", "I:3,3", "--lambda", "1.5", "--witness-out", str(wpath)
    )
    assert code == 0 and d["agreement"] is True
    assert d["verdicts"]["witness_found"] is True
    assert d["verdicts"]["witness_size"] <= 48
    code, r, _ = run_json(capsys, "replay", str(wpath))
    assert code == 0
    assert r["verdicts"]["drift"] <= 1e-12
    assert r["verdicts"]["min_eig_replayed"] == pytest.approx(
        d["verdicts"]["min_eigenvalue"], abs=1e-12
    )


def test_calabi_and_scan_json_say_what_was_solved(capsys):
    # III:3 at cutoff 7: 7 548 entries, of which the 80 orbit representatives
    # hold 1 799, summed from 13 444 pairs of the 23 731 formed.  The text
    # output is unchanged.
    sizes = {"m": 1716, "entries": 7548, "entries_solved": 1799, "pairs_formed": 23731,
             "pairs_kept": 13444}
    code, d, _ = run_json(capsys, "calabi", "III:3", "--lambda", "0.75", "--cutoff", "7")
    assert code == 0 and d["sizes"] == sizes
    code, d, _ = run_json(capsys, "scan", "III:3", "--lambda-from", "0.5", "--lambda-to", "1",
                          "--step", "0.25", "--cutoff", "7")
    assert code == 0 and d["sizes"] == sizes
    code, out, _ = run(capsys, "calabi", "III:3", "--lambda", "0.75", "--cutoff", "7")
    assert code == 0 and "1799" not in out and "sizes" not in out


def test_replay_is_charged_to_the_memory_guard(capsys, tmp_path, monkeypatch):
    # 400 points on I:3,3 make 80 200 pairs of 9 coordinates at 160 bytes
    # each, about 0.115 GB: refused under a 0.1 GB limit before anything is
    # gathered, answered under 0.2 GB.
    wpath = tmp_path / "w.json"
    points = [[[0.001 * a, 0.0]] + [[0.0, 0.0]] * 8 for a in range(400)]
    payload = {"domain": "I:3,3", "lambda": 1.5, "points": points, "min_eig": -1.0, "seed": 0}
    wpath.write_text(json.dumps(payload))
    monkeypatch.setattr(multiindex, "MEMORY_LIMIT_BYTES", 10**8)
    code, out, err = run(capsys, "replay", str(wpath))
    assert code == 1 and out == ""
    assert "a Gram matrix of 400 points needs about 0.1 GB" in err
    monkeypatch.setattr(multiindex, "MEMORY_LIMIT_BYTES", 2 * 10**8)
    assert run(capsys, "replay", str(wpath))[0] == 2  # answered: the stored -1.0 drifts


def test_gram_overflowing_lambda_answers_without_witness(capsys):
    code, d, _ = run_json(capsys, "gram", "I:2,2", "--lambda", "1e300", "--budget", "10")
    assert code == 0
    assert d["verdicts"]["witness_found"] is False
    assert d["agreement"] is True


class _Hang(Exception):
    pass


def _hang(signum, frame):
    raise _Hang


GRAM_SECONDS = 10


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    spec=st.sampled_from(["I:2,2", "I:2,3", "I:3,3", "III:2", "III:3", "IV:3", "IV:5", "CH:2"]),
    lam=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-4.0, 4.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    ),
    budget=st.integers(1, 10**12),
)
def test_gram_answers_every_input_without_a_false_witness(capsys, spec, lam, budget):
    # Every run ends in exit 0 or 1 with a JSON report or error object and no
    # traceback, within GRAM_SECONDS; a closed-form Wallach member never gets
    # a witness.
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(GRAM_SECONDS)
    try:
        code = main(["gram", spec, f"--lambda={lam!r}", f"--budget={budget}", "--format", "json"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code in (0, 1), (code, err)
    assert "Traceback" not in out + err
    d = json.loads(out)
    if code == 0:
        assert d["verdicts"]["wallach_member"] == wallach_contains(parse_domain(spec), lam)
        if d["verdicts"]["wallach_member"]:
            assert d["verdicts"]["witness_found"] is False, (spec, lam)


VERDICT_SECONDS = 10
_VERDICT_SPECS = ["I:2,2", "I:2,3", "I:3,3", "III:2", "III:3", "IV:3", "IV:5", "CH:1", "CH:2"]


def _near_wallach(spec):
    """The discrete Wallach points of spec and values 1e-13 to 1e-7 off them."""
    return st.tuples(
        st.sampled_from(wallach_set(parse_domain(spec)).discrete),
        st.one_of(st.just(0.0), st.floats(1e-13, 1e-7), st.floats(-1e-7, -1e-13)),
    ).map(sum)


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]


@st.composite
def _verdict_inputs(draw):
    # Any finite lambda, with extra weight on [-4, 4], on signed zeros, the
    # least subnormals and huge values, and on the discrete Wallach points
    # and points 1e-13 to 1e-7 away from them.
    spec = draw(st.sampled_from(_VERDICT_SPECS))
    lam = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-4.0, 4.0),
        st.sampled_from(_EDGE_VALUES),
        _near_wallach(spec),
    ))
    return spec, draw(st.integers(1, 5)), lam


def _run_bounded(capsys, argv):
    """main(argv + --format json) under VERDICT_SECONDS: it ends in exit 0 or
    2 with a JSON report, or exit 1 with a JSON error object or a usage
    error, and no traceback.  The exit code and the JSON, None for a usage
    error."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(VERDICT_SECONDS)
    try:
        code = main([*argv, "--format", "json"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in out + err
    if code == 1 and not out:
        assert err.startswith("usage error: "), err
        return code, None
    d = json.loads(out)
    assert ("error" in d) == (code == 1), d
    return code, d


def _near_discrete(dom, lam):
    return min(abs(lam - point) for point in wallach_set(dom).discrete) <= 1e-8


_PROPERTY_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("command", ["calabi", "immersion"])
@settings(max_examples=100, **_PROPERTY_SETTINGS)
@given(case=_verdict_inputs())
def test_calabi_and_immersion_answer_every_input(capsys, command, case):
    # Every run ends within VERDICT_SECONDS in exit 0 or 2 with a JSON report,
    # or exit 1 with a JSON error object or a usage error, and no traceback.
    # calabi disagrees with the closed form only where the truncation cannot
    # see the gap (cutoff < r) or next to a discrete Wallach point, and
    # immersion never compares verdicts.
    spec, cutoff, lam = case
    code, _ = _run_bounded(capsys, [command, spec, f"--lambda={lam!r}", f"--cutoff={cutoff}"])
    if code == 2:
        dom = parse_domain(spec)
        assert command == "calabi" and (cutoff < dom.r or _near_discrete(dom, lam)), (
            command, spec, cutoff, lam)


@st.composite
def _scan_inputs(draw):
    # Grid ends from [-4, 4], the edge values and the points near the
    # discrete Wallach points; half the time the end is 0 to 3 steps past the
    # start.  Steps from [0.25, 4] keep a grid within [-4, 4] to 33 lambdas;
    # the edge steps and -0.5 exercise the grid's usage errors and huge spans.
    spec = draw(st.sampled_from(_VERDICT_SPECS))
    ends = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_EDGE_VALUES), _near_wallach(spec))
    lam_from = draw(ends)
    step = draw(st.one_of(st.floats(0.25, 4.0), st.sampled_from(_EDGE_VALUES + [-0.5])))
    lam_to = draw(st.one_of(st.integers(0, 3).map(lambda k: lam_from + k * step), ends))
    return spec, draw(st.integers(1, 5)), lam_from, lam_to, step


@settings(max_examples=100, **_PROPERTY_SETTINGS)
@given(case=_scan_inputs())
def test_scan_answers_every_input(capsys, case):
    # As for calabi: scan disagrees with the closed form only where the
    # truncation cannot see the gap (cutoff < r) or at a grid lambda within
    # 1e-8 of a discrete Wallach point.
    spec, cutoff, lam_from, lam_to, step = case
    argv = ["scan", spec, f"--lambda-from={lam_from!r}", f"--lambda-to={lam_to!r}",
            f"--step={step!r}", f"--cutoff={cutoff}"]
    code, d = _run_bounded(capsys, argv)
    if code == 2:
        dom = parse_domain(spec)
        disagreements = d["verdicts"]["disagreements"]
        assert disagreements and (
            cutoff < dom.r or all(_near_discrete(dom, lam) for lam in disagreements)
        ), (case, disagreements)


@st.composite
def _ch_check_inputs(draw):
    # mu from einstein, the extremes 1e-300 and 1e300, [0.1, 4] and invalid
    # values; c like lambda above, and near values that put some
    # lambda_m = mu (c + m), m <= 2, within 1e-7 of a discrete Wallach point.
    base = draw(st.sampled_from(_VERDICT_SPECS))
    mu = draw(st.one_of(
        st.sampled_from(["einstein", "1e-300", "1e300", "0", "-1", "inf", "nan"]),
        st.floats(0.1, 4.0).map(repr),
    ))
    spec = f"CHD({base};mu={mu})"
    cs = [st.floats(allow_nan=False, allow_infinity=False), st.floats(-4.0, 4.0),
          st.sampled_from(_EDGE_VALUES)]
    if mu not in ("0", "-1", "inf", "nan"):
        mu_value = parse_ch_spec(spec).mu
        cs.append(st.tuples(_near_wallach(base), st.integers(0, 2)).map(
            lambda pm: pm[0] / mu_value - pm[1]))
    return spec, draw(st.one_of(st.none(), st.integers(1, 5))), draw(st.one_of(cs))


@settings(max_examples=100, **_PROPERTY_SETTINGS)
@given(case=_ch_check_inputs())
def test_ch_check_answers_every_input(capsys, case):
    # The blocks see the closed form's first failing w-degree m only from
    # total degree m + r on, so ch-check may disagree with the closed form
    # when m + r exceeds the cutoff, or when some lambda_m = mu (c + m) with
    # m <= cutoff lies within 1e-8 of a discrete Wallach point of the base.
    # The known tiny-mu disagreement (mu = 1e-300, every lambda_m about 0) is
    # the latter at the point 0.  Without a cutoff nothing is compared.
    spec, cutoff, c = case
    argv = ["ch-check", spec, f"--c={c!r}"] + ([] if cutoff is None else [f"--cutoff={cutoff}"])
    code, _ = _run_bounded(capsys, argv)
    if code == 2:
        ch = parse_ch_spec(spec)
        failure = ch_projectively_induced(ch, c).first_failure
        assert cutoff is not None and (
            (failure is not None and failure[0] + ch.base.r > cutoff)
            or any(_near_discrete(ch.base, ch.mu * (c + m)) for m in range(cutoff + 1))
        ), case


# Numbers a witness file may hold where a float is read: finite, signed
# infinities, NaN and values near the largest double.
_WITNESS_NUMBERS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1.7976931348623157e308]),
)
_REPLAY_DIMS = {"I:2,2": 4, "III:2": 3, "IV:3": 3, "CH:2": 2}


@st.composite
def _witness_payloads(draw):
    # Points of the domain's length mostly, some of other lengths (none,
    # ragged or all wrong), and now and then a non-finite coordinate.
    spec = draw(st.sampled_from(sorted(_REPLAY_DIMS)))
    d = _REPLAY_DIMS[spec]
    lengths = draw(st.lists(st.one_of(st.just(d), st.integers(0, d + 2)), max_size=5))
    pair = st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)
    points = [draw(st.lists(pair, min_size=n, max_size=n)) for n in lengths]
    if any(points) and draw(st.booleans()):
        first = next(point for point in points if point)
        first[0][draw(st.integers(0, 1))] = draw(st.sampled_from([math.nan, math.inf, 1e300]))
    payload = {
        "domain": spec,
        "lambda": draw(_WITNESS_NUMBERS),
        "points": points,
        "min_eig": draw(_WITNESS_NUMBERS),
    }
    # The seed is mostly an integer, sometimes NaN, a float or a list, or missing.
    seeds = st.one_of(st.integers(), st.just(math.nan), st.floats(), st.lists(st.integers()))
    if draw(st.booleans()):
        payload["seed"] = draw(seeds)
    return payload


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_witness_payloads())
def test_replay_answers_every_witness_file(capsys, tmp_path, payload):
    # A witness file comes from outside the program: whatever it holds,
    # replay exits 0, 1 or 2, the same in text and JSON, and the JSON output parses.
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(payload))
    codes = []
    for fmt in ("text", "json"):
        codes.append(main(["replay", str(wpath), "--format", fmt]))
        out, err = capsys.readouterr()
        assert codes[-1] in (0, 1, 2), (codes[-1], err)
        assert "Traceback" not in out + err
        if fmt == "json":
            d = json.loads(out)
            assert ("error" in d) == (codes[-1] == 1)
    assert codes[0] == codes[1], (codes, payload)


def test_scan_csv_output(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "I:2,2",
        "--lambda-from",
        "0.4",
        "--lambda-to",
        "0.6",
        "--step",
        "0.1",
        "--cutoff",
        "2",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,degree,block_dim,min_eig,psd"
    assert len(lines) == 1 + 3 * 2  # three lambdas, degrees 1 and 2
    by_key = {}
    for line in lines[1:]:
        lam, deg, dim, eig, psd = line.split(",")
        by_key[(float(lam), int(deg))] = (int(dim), float(eig), psd)
    dim, eig, psd = by_key[(0.5, 2)]
    assert dim == 10
    assert eig == pytest.approx(-0.25, rel=1e-12)
    assert psd == "false"


def test_scan_text_reads_each_lambda_from_all_its_rows(capsys):
    # Every lambda has rows at degrees 1, 2 and 3, so the degrees interleave.
    argv = ["III:2", "--lambda-from", "0.125", "--lambda-to", "1.5", "--step", "0.125"]
    code, out, _ = run(capsys, "scan", *argv, "--cutoff", "3")
    assert code == 0
    dom, lams = parse_domain("III:2"), _scan_grid(0.125, 1.5, 0.125)
    rows = calabi.scan_lambdas(dom, lams, 3)
    assert [r.degree for r in rows[:6]] == [1, 2, 3, 1, 2, 3]
    expected = ["III:2: scan lambda in [0.125, 1.5]"]
    for lam in lams:
        own = [r for r in rows if r.lam == lam]
        psd = all(r.psd for r in own)
        assert psd == wallach_contains(dom, lam)
        worst = min(r.min_eig for r in own)
        expected.append(f"  lambda={lam!r}: {'PSD' if psd else 'not PSD'} (min_eig={worst:.6g})")
    assert out == "\n".join(expected) + "\n"


def test_scan_disagreement_exits_two_and_names_the_lambdas(capsys):
    # At cutoff 1 only the degree-1 block is read, and a gap scale passes it.
    argv = ["I:2,2", "--lambda-from", "0.5", "--lambda-to", "0.5", "--step", "0.1"]
    code, out, _ = run(capsys, "scan", *argv, "--cutoff", "1")
    assert code == 2
    assert out.endswith("  DISAGREEMENTS at lambda: [0.5]\n")


def test_ch_check_threshold(capsys):
    code, d, _ = run_json(
        capsys, "ch-check", "CHD(I:2,2;mu=einstein)", "--c", "1.25"
    )
    assert code == 0
    assert d["verdicts"]["induced_closed_form"] is True
    assert d["verdicts"]["threshold"] == pytest.approx(1.25)
    assert d["verdicts"]["mu_einstein"] == pytest.approx(0.8)


def test_ch_check_below_threshold_with_blocks(capsys):
    code, d, _ = run_json(
        capsys, "ch-check", "CHD(I:2,2;mu=einstein)", "--c", "1.0", "--cutoff", "4"
    )
    assert code == 0
    v = d["verdicts"]
    assert v["induced_closed_form"] is False
    assert v["first_failure"] == {"m": 0, "lambda": 0.8}
    assert v["truncated_psd"] is False
    assert d["agreement"] is True
    blocks = d["per_block"]
    assert all(1 <= b["solved_components"] <= b["components"] for b in blocks)
    assert sum(b["solved_components"] for b in blocks) < sum(b["components"] for b in blocks)


def test_ch_check_says_what_was_solved(capsys):
    # With --cutoff, ch-check reports the sizes of the base plan it replays.
    ch = parse_ch_spec("CHD(III:3;mu=0.25)")
    plan = compile_recurrence(norm_series(ch.base, 6), symmetries(ch.base))
    code, d, _ = run_json(capsys, "ch-check", ch.spec_string, "--c", "2", "--cutoff", "6")
    assert code == 0 and d["sizes"] == plan.sizes()
    code, d, _ = run_json(capsys, "ch-check", ch.spec_string, "--c", "2")
    assert code == 0 and "sizes" not in d


def test_ch_check_names_the_closed_forms_first_failing_w_degree(capsys):
    # The lowest refuted degree's witness lies in one w-degree m: every
    # smaller m has lambda_m in W, and a larger one is refuted only at a
    # higher base degree, so m is the closed form's first failure.
    cases = [("CHD(I:2,2;mu=einstein)", "1", "6"), ("CHD(III:3;mu=0.25)", "2", "6"),
             ("CHD(I:2,2;mu=0.5)", "1", "5"), ("CHD(III:3;mu=einstein)", "0.6", "6"),
             ("CHD(IV:5;mu=0.7)", "0.5", "5")]
    ms = []
    for spec, c, cutoff in cases:
        code, d, _ = run_json(capsys, "ch-check", spec, "--c", c, "--cutoff", cutoff)
        assert code == 0, spec
        v = d["verdicts"]
        fail = v["truncated_first_failure"]
        assert fail["m"] == v["first_failure"]["m"], spec
        assert fail["lambda"] == pytest.approx(v["first_failure"]["lambda"], rel=1e-15), spec
        refuted = [b["degree"] for b in d["per_block"] if b["min_eig"] < -b["tol"]]
        assert fail["degree"] == min(refuted), spec
        _, out, _ = run(capsys, "ch-check", spec, "--c", c, "--cutoff", cutoff)
        assert f"first refuted degree {fail['degree']}: w-degree m={fail['m']}," in out
        ms.append(fail["m"])
    assert ms == [0, 1, 0, 0, 0]
    code, d, _ = run_json(capsys, "ch-check", "CHD(I:2,2;mu=einstein)", "--c", "1.25",
                          "--cutoff", "4")
    assert code == 0 and "truncated_first_failure" not in d["verdicts"]


def test_einstein_probe(capsys):
    code, d, _ = run_json(capsys, "einstein", "CHD(CH:1;mu=1)", "--points", "1")
    assert code == 0
    assert d["parameters"] == {"points": 1, "seed": 0}
    v = d["verdicts"]
    assert v["k_mean"] == pytest.approx(-3.0, rel=1e-4)
    assert v["max_residual"] <= 1e-5


@pytest.mark.parametrize(
    "argv, named",
    [
        (("ch-check", "CHD(I:2,2;mu=inf)", "--c", "1"), "mu"),
        (("ch-check", "CHD(I:2,2;mu=einstein)", "--c", "inf"), "--c"),
        (("wallach", "I:2,2", "--lambda", "nan"), "--lambda"),
        (("calabi", "I:2,2", "--lambda", "nan", "--cutoff", "3"), "--lambda"),
    ],
)
def test_non_finite_inputs_exit_one(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert named in err and ("finite" in err)


@pytest.mark.parametrize(
    "argv", [("info", "I:2,40"), ("calabi", "I:2,40", "--lambda", "1", "--cutoff", "2")]
)
def test_eighty_variables_exit_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "I:2,40" in out


def test_einstein_zero_points_exit_one(capsys):
    code, out, err = run(capsys, "einstein", "CHD(CH:1;mu=1)", "--points", "0")
    assert code == 1
    assert out == ""
    assert "--points" in err


def test_scan_empty_range_exit_one(capsys):
    argv = ("scan", "I:2,2", "--lambda-from", "2", "--lambda-to", "1", "--step", "0.1")
    code, out, err = run(capsys, *argv, "--cutoff", "2")
    assert code == 1
    assert out == ""
    assert "--lambda-from" in err and "--lambda-to" in err


@pytest.mark.parametrize("step, size", [("1e-9", "1e+18"), ("1e-320", "inf")])
def test_scan_grid_too_large_exits_one(capsys, step, size):
    argv = ("scan", "I:2,2", "--lambda-from", "0", "--lambda-to", "1e9", "--step", step)
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--cutoff", "2")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert out == ""
    assert f"{size} lambda values" in err


def test_calabi_block_budget_exits_one(capsys):
    started = time.monotonic()
    code, out, err = run(capsys, "calabi", "I:6,6", "--lambda", "1.5", "--cutoff", "8")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert out == ""
    assert "usage error" in err and "GB" in err and "basis in 36 variables" in err


def test_einstein_over_memory_limit_exits_one(capsys):
    started = time.monotonic()
    code, out, err = run(capsys, "einstein", "CHD(I:6,6;mu=einstein)", "--points", "1")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert out == ""
    assert "usage error" in err and "GB" in err and "norm jet" in err


def test_calabi_non_finite_coefficients_exit_one(capsys):
    # lambda = 1e300 overflows the degree-2 coefficients to inf
    code, out, err = run(capsys, "calabi", "I:2,2", "--lambda", "1e300", "--cutoff", "3")
    assert code == 1
    assert out == ""
    assert "degree-2 block has non-finite coefficients" in err


def test_calabi_reports_weight_components(capsys):
    code, d, _ = run_json(capsys, "calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "2")
    assert code == 0
    keys = ("dim", "components", "largest_component", "solved_components")
    blocks = [tuple(b[k] for k in keys) for b in d["per_block"]]
    # Row and column swaps and the transpose: the four z_ij form one orbit;
    # in degree 2 the squares, the pairs sharing a row or a column, and the
    # 2-wide {z11 z22, z12 z21} do.
    assert blocks == [(4, 4, 1, 1), (10, 9, 2, 3)]


@pytest.mark.parametrize("cutoff", [7, 9])
def test_calabi_i33_peak_rss_under_1gb(cutoff):
    # At cutoff 7 a dense m x m position table would alone need about 1 GB
    # (m = 11440); at cutoff 9 the dense top block alone would need 4.7 GB.
    src = Path(__file__).resolve().parents[1] / "src"
    child = (
        "import resource, sys\n"
        "from wallachkit.cli import main\n"
        f"code = main(['calabi', 'I:3,3', '--cutoff', '{cutoff}', '--lambda', '1.5',"
        " '--format', 'json'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdicts"]["truncated_psd"] is False
    assert max(b["dim"] for b in report["per_block"]) == math.comb(cutoff + 8, 8)
    peak_kb = int(proc.stderr.strip().splitlines()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kb < 1024 * 1024


@pytest.mark.parametrize(
    "argv",
    [("calabi", "I:2,2", "--lambda", "1.5", "--cutoff", "3"),
     ("immersion", "I:2,2", "--lambda", "1.5", "--cutoff", "3"),
     ("scan", "I:2,2", "--lambda-from", "0.5", "--lambda-to", "1.5", "--step", "0.5",
      "--cutoff", "3"),
     ("ch-check", "CHD(I:2,2;mu=einstein)", "--c", "1", "--cutoff", "3")],
)
def test_each_block_verdict_compiles_the_recurrence_once(capsys, monkeypatch, argv):
    # One plan per run: immersion checks its reconstruction on the matrix it
    # factored, and the scan replays one plan at every lambda.
    compiles = []

    def counted(*args, **kwargs):
        compiles.append(args[0].cutoff)
        return compile_recurrence(*args, **kwargs)

    monkeypatch.setattr(hs, "compile_recurrence", counted)
    monkeypatch.setattr(calabi, "_SCAN_PLAN_CACHE", {})
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert compiles == [3]


def test_immersion_write_out_is_charged_before_extraction(capsys, monkeypatch):
    # I:3,3 at cutoff 6 can write 26 442 terms: refused under a 10 MB limit
    # after the matrix, before any component is built.
    monkeypatch.setattr(multiindex, "MEMORY_LIMIT_BYTES", 10**7)
    monkeypatch.setattr(calabi, "_spectral_pass", None)  # extraction would call it
    code, out, err = run(capsys, "immersion", "I:3,3", "--lambda", "4", "--cutoff", "6")
    assert code == 1
    assert out == ""
    assert "usage error" in err and "write-out of up to 26442 terms" in err


def test_generic_norm_is_charged_before_its_products(capsys, monkeypatch):
    # III:7 at cutoff 7 would form about 58 M products of the squares' terms.
    started = time.monotonic()
    code, out, err = run(capsys, "calabi", "III:7", "--lambda", "2.75", "--cutoff", "7")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert out == ""
    assert "usage error" in err and "57905114 term products of the generic norm" in err

    # The widest norms that answer today pass the charge and reach their basis.
    class Charged(Exception):
        pass

    def reached(*args):
        raise Charged

    monkeypatch.setattr(domains, "basis", reached)
    for spec, cutoff in (("I:6,6", 5), ("III:6", 6)):
        with pytest.raises(Charged):
            norm_series(parse_domain(spec), cutoff)


@pytest.mark.parametrize(
    "argv, code, said",
    [(("calabi", "I:2,2", "--lambda", "-1e300", "--cutoff", "3"), 1, "non-finite coefficients"),
     (("calabi", "I:2,2", "--c", "-5e-324", "--cutoff", "3"), 0, "lambda=-2e-323,"),
     (("wallach", "I:2,2", "--lambda", "-2.5E+1"), 0, "member=False"),
     (("ch-check", "CHD(I:2,2;mu=einstein)", "--c", "1e300", "--cutoff", "3"), 1,
      "RuntimeError: degree-2 block has non-finite coefficients")],
)
def test_extreme_numbers_are_values_and_overflow_is_reported(capsys, argv, code, said):
    # A negative value in exponent notation is read as a number, not a flag,
    # and a scale that overflows the coefficients names them, not numpy's
    # overflow warning.
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert said in out + err


def test_immersion_components(capsys):
    code, d, _ = run_json(
        capsys, "immersion", "CH:1", "--lambda", "1.0", "--cutoff", "3"
    )
    assert code == 0
    assert d["verdicts"]["n_components"] == 4
    assert d["verdicts"]["reconstruction_error"] <= 1e-10
    assert d["per_block"][0] == {"degree": 0, "terms": {"0": 1}}


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "info",
        "CH:2",
        "--format",
        "json",
        "--out",
        str(path),
    )
    assert code == 0
    d = json.loads(path.read_text())
    assert d["domain"] == "CH:2"


def test_unwritable_out_exits_one(capsys, tmp_path):
    # The report is written inside main's error handling, so an --out in a
    # missing directory is an error report, not a traceback.
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "info", "I:2,2", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError:") and "Traceback" not in err
    code, d, _ = run_json(capsys, "info", "I:2,2", "--out", str(path))
    assert code == 1 and d["error"]["type"] == "FileNotFoundError"
    assert not path.parent.exists()


@pytest.mark.parametrize("min_eig", [math.nan, math.inf, -math.inf])
def test_replay_of_a_non_finite_min_eig_exits_one(capsys, tmp_path, min_eig):
    # JSON has no NaN or infinity, but Python's json module reads and writes
    # the NaN and Infinity tokens, so a witness file can hold them.
    wpath = tmp_path / "w.json"
    points = [[[0.1, 0.0]] * 4, [[0.0, 0.0]] * 4]
    payload = {"domain": "I:2,2", "lambda": 0.5, "points": points, "min_eig": min_eig}
    wpath.write_text(json.dumps(payload))
    code, out, err = run(capsys, "replay", str(wpath))
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: witness field 'min_eig'")
    code, d, _ = run_json(capsys, "replay", str(wpath))
    assert code == 1 and d["error"]["type"] == "ValueError"
    assert "'min_eig'" in d["error"]["message"]


def test_replay_of_an_overflowing_drift_exits_two_in_text_and_json(capsys, tmp_path):
    # The stored 1.79e308 and the recomputed -1.18e307 are finite, but their
    # distance is not: both formats answer "not within tolerance", and JSON,
    # which has no infinity, writes the drift as null.
    wpath = tmp_path / "w.json"
    points = [[[0.99, 0.0], [0.0, 0.0]], [[-0.99, 0.0], [0.0, 0.0]]]
    payload = {"domain": "CH:2", "lambda": -1035, "points": points, "min_eig": 1.79e308, "seed": 0}
    wpath.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "replay", str(wpath))
    assert code == 2 and "drift=inf" in out and "within 1e-12: False" in out
    code, d, _ = run_json(capsys, "replay", str(wpath))
    assert code == 2 and d["agreement"] is False
    assert d["verdicts"]["drift"] is None and d["verdicts"]["within_tolerance"] is False
    assert d["verdicts"]["min_eig_replayed"] < -1e307


@pytest.mark.parametrize("seed", [math.nan, 1.5, [0], {"seed": 0}, True, None])
def test_replay_of_a_seed_that_is_not_an_integer_exits_one(capsys, tmp_path, seed):
    # replay echoes the seed in its report, so only an integer or none at all passes.
    wpath = tmp_path / "w.json"
    points = [[[0.1, 0.0]] * 4, [[0.0, 0.0]] * 4]
    payload = {"domain": "I:2,2", "lambda": 0.5, "points": points, "min_eig": -1.0, "seed": seed}
    wpath.write_text(json.dumps(payload))
    code, out, err = run(capsys, "replay", str(wpath))
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: witness field 'seed'")
    code, d, _ = run_json(capsys, "replay", str(wpath))
    assert code == 1 and d["error"]["type"] == "ValueError"
    assert "'seed'" in d["error"]["message"]
    del payload["seed"]
    wpath.write_text(json.dumps(payload))
    code, d, _ = run_json(capsys, "replay", str(wpath))
    assert code == 2 and d["parameters"]["seed"] is None  # answered: the stored -1.0 drifts


def test_usage_errors_exit_one(capsys):
    cases = [
        ("info", "Z:9"),
        ("nope",),
        ("calabi", "I:2,2", "--cutoff", "3"),
        ("calabi", "I:2,2", "--lambda", "1", "--c", "1", "--cutoff", "3"),
        ("ch-check", "CHD(I:2,2)", "--c", "1"),
        ("gram", "I:2,2", "--lambda", "0.5", "--threads", "2"),
        ("gram", "I:2,2", "--lambda", "0.5", "--seed", "1"),
        ("gram", "I:2,2", "--lambda", "0.5", "--points", "6"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err, argv


def test_json_error_object(capsys):
    code, out, err = run(
        capsys, "calabi", "Z:9", "--lambda", "1", "--cutoff", "2", "--format", "json"
    )
    assert code == 1
    d = json.loads(out)
    assert d["error"]["type"] == "ValueError"
    assert "Z:9" in d["error"]["message"]


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(_subparsers(build_parser(None))))
def test_a_subcommands_own_parser_prints_the_full_parsers_help(name):
    alone = _subparsers(build_parser(name))
    assert list(alone) == [name]
    assert alone[name].format_help() == _subparsers(build_parser(None))[name].format_help()


@pytest.mark.parametrize(
    "argv",
    [("calabi", "I:2,2", "--lambda", "1"),
     ("scan", "I:2,2", "--lambda-from", "0", "--lambda-to", "1", "--step", "0.5"),
     ("gram", "I:2,2", "--lambda", "1", "--budget", "many"),
     ("calabi", "I:2,2", "--lambda", "1", "--cutoff", "3.5"),
     ("immersion", "I:2,2", "--lambda", "1", "--c", "0.25", "--cutoff", "2"),
     ("calabi", "I:2,2", "--lambda", "1", "--cutoff", "3", "--format", "csv"),
     ("wallach", "I:2,2", "--lambda", "1", "surplus"),
     ("calibrate", "I:2,2"),
     ()],
)
def test_a_subcommands_own_parser_refuses_as_the_full_parser_does(capsys, argv):
    with pytest.raises(UsageError) as full:
        build_parser(None).parse_args(argv)
    assert run(capsys, *argv) == (1, "", f"usage error: {full.value}\n")


def test_a_run_registers_only_its_own_subcommand(monkeypatch, capsys):
    registered, every = [], list(_subparsers(build_parser(None)))
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["wallach", "I:2,2", "--lambda", "1"]) == 0
    assert registered == ["wallach"]
    registered.clear()
    assert main(["--help"]) == 0  # the top-level help lists every subcommand
    assert registered == every and len(every) == 9
    assert "wallachkit" in capsys.readouterr().out
