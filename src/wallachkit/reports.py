"""Machine-readable experiment reports.

JSON output serializes every float with 17 significant digits, which is
enough for exact double round-trips, so archived reports replay bit-for-bit:
parse_json(to_json(x)) == x for any report value.  The scan CSV schema is
fixed: one row per (lambda, degree) pair under the documented header.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

SCAN_CSV_HEADER = "lambda,degree,block_dim,min_eig,psd"


def format_float(x: float) -> str:
    """Shortest-or-17-digit decimal that parses back to the same double."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must not contain NaN or infinity")
    return format(x, ".17g")


def _emit(value: Any, level: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        parts = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k)}")
            parts.append(f"{pad}{json.dumps(k)}: {_emit(v, level + 1)}")
        return "{\n" + ",\n".join(parts) + f"\n{close_pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        parts = [f"{pad}{_emit(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + f"\n{close_pad}]"
    raise TypeError(f"cannot serialize {type(value)} to JSON")


def to_json(value: Any) -> str:
    return _emit(value, 0) + "\n"


def parse_json(text: str) -> Any:
    return json.loads(text)


@dataclass
class RunReport:
    """One CLI invocation's results in a serializable shape."""

    command: str
    domain: str
    parameters: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    per_block: list = field(default_factory=list)
    agreement: bool | None = None
    duration_s: float = 0.0
    sizes: dict = field(default_factory=dict)  # what was solved; emitted when set


def report_to_dict(report: RunReport) -> dict:
    out = {
        "command": report.command,
        "domain": report.domain,
        "parameters": report.parameters,
        "verdicts": report.verdicts,
        "per_block": report.per_block,
        "agreement": report.agreement,
        "duration_s": report.duration_s,
    }
    if report.sizes:
        out["sizes"] = report.sizes
    return out


def scan_csv(rows: Sequence) -> str:
    """CSV for scan results; rows carry lam/degree/block_dim/min_eig/psd."""
    lines = [SCAN_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                (
                    format_float(row.lam),
                    str(row.degree),
                    str(row.block_dim),
                    format_float(row.min_eig),
                    "true" if row.psd else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"
