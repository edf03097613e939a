"""Per-case breakdown of a traced run's record.

    python3 perfbench/cases.py .bench_out/cold_verdicts-seed1-trace1.json

Prints, for each case of the traced pass, its wall time, the self time of
every layer it called, and its exact counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Span, self_times


def main(path: str) -> int:
    record = json.loads(Path(path).read_text())
    spans = [Span(**s) for s in record["spans"]]
    per_layer = self_times(spans, key=lambda s: (s.case, s.name))
    counts: dict[str, dict] = {}
    for c in record["cases"]:  # the traced pass comes first
        counts.setdefault(c["case"], (c["outcome"] or {}).get("counts", {}))
    for case in dict.fromkeys(s.case for s in spans):
        wall = sum(s.end - s.start for s in spans if s.case == case and s.parent is None)
        layers = ", ".join(
            f"{name} {t:.4f}" for (c, name), t in sorted(per_layer.items()) if c == case
        )
        print(f"{case}: wall {wall:.4f} s; {layers}; counts {counts.get(case, {})}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
