"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--out FILE]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.  --out keeps every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        s = spread(values)
        flag = "" if s <= m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above bound/3"
        print(f"{m['name']:24s} median {statistics.median(values):.6g} {m['unit']:6s}"
              f" spread {s:.4f} bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
