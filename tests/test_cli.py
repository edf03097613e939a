"""End-to-end command-line checks through main(argv)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wallachkit import calabi
from wallachkit.cli import _scan_grid, main
from wallachkit.domains import parse_domain, wallach_contains


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
        "--seed",
        "1",
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
    code, d, _ = run_json(
        capsys, "gram", "I:2,2", "--lambda", "1.5", "--budget", "300", "--seed", "0"
    )
    assert code == 0
    assert d["verdicts"]["witness_found"] is False


def test_gram_overflowing_lambda_answers_without_witness(capsys):
    code, d, _ = run_json(capsys, "gram", "I:2,2", "--lambda", "1e300", "--budget", "10")
    assert code == 0
    assert d["verdicts"]["witness_found"] is False
    assert d["agreement"] is True


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
        expected.append(f"  lambda={lam:g}: {'PSD' if psd else 'not PSD'} (min_eig={worst:.6g})")
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
        (("calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3", "--tol-abs", "nan"), "--tol-abs"),
        (("calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3", "--tol-abs", "inf"), "--tol-abs"),
        (("calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3", "--tol-rel=-inf"), "--tol-rel"),
        (("calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3", "--tol-abs", "-1"), "--tol-abs"),
        (("calabi", "I:2,2", "--lambda", "0.5", "--cutoff", "3", "--tol-rel", "-1"), "--tol-rel"),
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


def test_usage_errors_exit_one(capsys):
    cases = [
        ("info", "Z:9"),
        ("nope",),
        ("calabi", "I:2,2", "--cutoff", "3"),
        ("calabi", "I:2,2", "--lambda", "1", "--c", "1", "--cutoff", "3"),
        ("ch-check", "CHD(I:2,2)", "--c", "1"),
        ("gram", "I:2,2", "--lambda", "0.5", "--threads", "2"),
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
