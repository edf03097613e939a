"""Serialization round-trips and the fixed CSV/JSON formats."""

import json
import math

import numpy as np
import pytest

import wallachkit as wk
from wallachkit.reports import (
    SCAN_CSV_HEADER,
    RunReport,
    format_float,
    parse_json,
    report_to_dict,
    scan_csv,
    to_json,
)


def test_format_float_is_shortest_exact():
    # 17 significant digits recover the double exactly
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(0.1)) == 0.1
    assert format_float(-0.25) == "-0.25"
    assert format_float(1.0) == "1"
    for x in (1e-17, 3.141592653589793, -2.5e300, 0.3 + 0.3 + 0.3):
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            format_float(bad)


def test_json_round_trip_exact():
    payload = {
        "min_eig": -0.24999999999999997,
        "lambdas": [0.1, 0.2, 0.30000000000000004],
        "psd": False,
        "label": "degree 2",
        "nested": {"count": 10, "nothing": None},
    }
    back = parse_json(to_json(payload))
    assert back == payload
    # every float must survive bit for bit
    assert back["min_eig"] == payload["min_eig"]
    assert back["lambdas"][2] == payload["lambdas"][2]


def test_json_accepts_numpy_scalars():
    text = to_json({"a": np.float64(0.5), "b": np.bool_(True), "c": np.int64(7)})
    assert parse_json(text) == {"a": 0.5, "b": True, "c": 7}


def test_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        to_json({1: "x"})


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json({"x": math.nan})


def test_json_output_is_plain_json():
    text = to_json({"k": [1, 2.5]})
    assert json.loads(text) == {"k": [1, 2.5]}
    assert text.endswith("\n")


def test_scan_csv_header_and_rows():
    assert SCAN_CSV_HEADER == "lambda,degree,block_dim,min_eig,psd"
    rows = wk.scan_lambdas(wk.catalog("CH", 1), [0.5, 1.0], 2)
    text = scan_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert first[1] == "1"
    assert first[4] in ("true", "false")
    # numeric fields parse back to the row values
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert float(parts[0]) == row.lam
        assert int(parts[1]) == row.degree
        assert int(parts[2]) == row.block_dim
        assert float(parts[3]) == row.min_eig
        assert parts[4] == ("true" if row.psd else "false")


def test_run_report_round_trip():
    r = RunReport(
        command="calabi",
        domain="I:2,2",
        parameters={"lambda": 0.5, "cutoff": 3},
        verdicts={"psd": False, "certainty": "refuted"},
        per_block=[{"degree": 2, "min_eig": -0.25, "block_dim": 10}],
        agreement=True,
        duration_s=0.017,
    )
    d = report_to_dict(r)
    assert d["command"] == "calabi"
    back = parse_json(to_json(d))
    assert back == d
    assert RunReport(**back) == r
