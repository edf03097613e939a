"""wallachkit benchmark: one closed-loop caller per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ./src; nothing is installed.  One process makes
one verdict at a time, the next only after the previous returns, in whole
passes over the workload's cases for S seconds, to within half a pass.  Every
verdict is checked against the independent oracles in oracle.py; an
exception, a time-out or a disagreement counts as a failed operation and the
run goes on.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are the ones
BENCHMARK.json declares.  A record of the run (metadata, per-case verdicts
and counts, and in a traced run every span) goes to .bench_out/.

--trace 0 reports the end-to-end metrics.  Their times are at the reference
host speed: each verdict's seconds are scaled by REF_NOMINAL_S over the mean
time of a fixed Python loop timed just before and just after it, so that a
shared host's slow spells do not read as changes of the program; the record
keeps the unscaled seconds and metrics beside them.
  setup_s          median over fresh processes of import, domain parse and
                   the workload's declared warm-up
  verdicts_per_s   verdicts completed per second of verdict time, with each
                   case at its median time over the run's passes
  verdict_p50_s, verdict_p90_s   quantiles over the cases of each case's
                   median time per verdict over the run's passes
  peak_rss_mb      peak resident memory of the run
  agreement_rate   verdicts that match their oracle, over verdicts attempted
  witness_coverage gap cases answered with a witness (Gram configuration or
                   negative block), over gap cases that run a witness path;
                   1.0 on a workload without such cases
  einstein_max_residual, einstein_k_err   the largest |Ric - k g| and
                   |k + (d+2)| over Einstein points, floored at 1e-12, the
                   level at which a double-precision probe counts as exact;
                   a workload without Einstein points reports the floor
--trace 1 runs one traced pass, composed from the layers' public calls with
a span around each, then untraced passes for the rest of the time, and
reports per-layer self times and exact counts.  It checks that the composed
verdicts equal the untraced ones; trace.overhead_s is the traced pass's wall
time minus the untraced pass's.

Tools beside it: spread.py runs several seeds and prints each end-to-end
metric's quartile spread against its bound; cases.py breaks a traced record
down per case; `python3 -m pytest -q perfbench` tests the oracles, the
statistics rules and the time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, percentile, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7
# Host speed: a fixed pure-Python loop, timed between verdicts.  Shared hosts
# slow down by 20-60 % for minutes at a time, and verdict times follow the
# loop (correlation 0.5-0.9 in 150 s trials), so each verdict's time is
# scaled by REF_NOMINAL_S over the mean of the loops on either side of it.
# Those two loops track a verdict better than its pass's mean loop does, and
# a numpy matmul in place of the loop tracked them no better.  REF_NOMINAL_S
# is the loop's median between verdicts on the machine the benchmark was tuned
# on (a shared 2-vCPU Xeon virtual machine at 2.1 GHz), so scaled times stay
# close to that machine's seconds.
REF_LOOP = 100_000
REF_NOMINAL_S = 0.006
VERDICT_LIMIT_S = 30.0
# No verdict starts later than this after process start, so a run with hangs
# still ends well inside three minutes.
RUN_BUDGET_S = 120.0
ACCURACY_FLOOR = 1e-12


class VerdictTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise VerdictTimeout


@dataclass
class Record:
    case: str
    seconds: float
    outcome: object  # workloads.Outcome, or None on error
    error: str | None
    host_s: float = REF_NOMINAL_S  # reference loop time just before the verdict
    host_after_s: float = REF_NOMINAL_S  # and just after it

    @property
    def scale(self) -> float:
        """Factor that brings this verdict's time to the reference host speed."""
        return 2 * REF_NOMINAL_S / (self.host_s + self.host_after_s)


@dataclass
class Pass:
    records: list[Record]
    wall: float


def reference_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - start


def attempt(workload, fn, case, deadline: float, tracer=None) -> Record:
    """One verdict under a time limit; failures are recorded, never raised."""
    workload.before_verdict()
    # The traced pass reports raw layer times, so it skips the reference loop.
    host_s = reference_s() if tracer is None else REF_NOMINAL_S
    limit = min(VERDICT_LIMIT_S, deadline - time.perf_counter())
    if limit <= 0:
        return Record(case.id, 0.0, None, "not started: run budget spent")
    outcome, error = None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = fn(case)
        else:
            with tracer.span("bench.case", case.id):
                outcome = fn(case)
    except VerdictTimeout:
        error = f"timed out after {limit:.0f} s"
    except Exception as exc:  # a failed verdict must not end the run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Record(case.id, time.perf_counter() - start, outcome, error, host_s)


def run_passes(workload, seconds: float, deadline: float) -> list[Pass]:
    """Whole passes over the cases for about `seconds` (at least one pass).

    Another pass starts only if it would end less than half a pass past
    `seconds`, so a run lasts `seconds` to within half a pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = [attempt(workload, workload.run, c, deadline) for c in workload.cases]
        now = time.perf_counter()
        passes.append(Pass(records, now - t0))
        if now - start + (now - t0) / 2 >= seconds or now >= deadline:
            break
    # The loop before each verdict is also the loop after the one before it.
    records = [r for p in passes for r in p.records]
    for r, after in zip(records, records[1:]):
        r.host_after_s = after.host_s
    records[-1].host_after_s = reference_s()
    return passes


def signature(records: list[Record], keys: set[str] | None = None) -> list:
    """Verdicts and exact counts per case, sorted by case id."""
    out = []
    for r in sorted(records, key=lambda r: r.case):
        if r.outcome is None:
            out.append([r.case, "error"])
            continue
        counts = {k: v for k, v in r.outcome.counts.items() if keys is None or k in keys}
        out.append([r.case, list(r.outcome.verdict), dict(sorted(counts.items()))])
    return out


def digest(sig: list) -> str:
    return hashlib.sha256(json.dumps(sig, default=repr).encode()).hexdigest()[:16]


def count_failed(records: list[Record]) -> int:
    return sum(1 for r in records if r.outcome is None or not r.outcome.agrees)


def end_to_end(passes: list[Pass], setup_s: float, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics; times at the reference host speed unless not scaled."""
    from workloads import maxrss_mb

    records = [r for p in passes for r in p.records]
    done = [r.outcome for r in records if r.outcome is not None]
    # Each case's median time over the passes, so that a quantile always reads
    # the same cases whether the run made two passes or three.
    by_case: dict[str, list[float]] = {}
    for r in records:
        by_case.setdefault(r.case, []).append(r.seconds * (r.scale if scaled else 1.0))
    times = [statistics.median(v) for v in by_case.values()]
    gaps = [o for o in done if o.gap and o.witness is not None]
    residuals = [o.residual for o in done if o.residual is not None]
    k_errs = [o.k_err for o in done if o.k_err is not None]
    return {
        "setup_s": setup_s,
        "verdicts_per_s": len(done) / len(records) * len(times) / sum(times),
        "verdict_p50_s": percentile(times, 0.5),
        "verdict_p90_s": percentile(times, 0.9),
        "peak_rss_mb": maxrss_mb(),
        "agreement_rate": sum(o.agrees for o in done) / len(records),
        "witness_coverage": sum(o.witness for o in gaps) / len(gaps) if gaps else 1.0,
        "einstein_max_residual": max([ACCURACY_FLOOR] + residuals),
        "einstein_k_err": max([ACCURACY_FLOOR] + k_errs),
    }


def per_layer(tracer, traced: list[Record], traced_wall: float, untraced_wall: float,
              workload, import_s: float) -> dict[str, float]:
    st = self_times(tracer.spans)
    outcomes = [r.outcome for r in traced if r.outcome is not None]

    def total(key: str) -> int:
        return sum(o.counts.get(key, 0) for o in outcomes) + workload.setup_counts.get(key, 0)

    def per_call(span: str, calls: str) -> float:
        n = total(calls)
        return st.get(span, 0.0) / n if n else 0.0

    gap_searches = [o for o in outcomes if o.gap and "evals_used" in o.counts]
    gap_kevals = sum(o.counts["evals_used"] for o in gap_searches) / 1000.0
    case_time = sum(s.end - s.start for s in tracer.spans if s.name == "bench.case")
    return {
        "cli.import_s": import_s,
        "multiindex.basis_s": st.get("multiindex.basis", 0.0),
        "multiindex.basis_m": total("basis_m"),
        "domains.one_minus_norm_s": st.get("domains.one_minus_norm", 0.0),
        "series.power_sequence_s": st.get("series.power_sequence", 0.0),
        "series.power_sequence_rss_mb": workload.rss.growth,
        "series.powers_nnz": total("powers_nnz"),
        "series.linear_combination_s": st.get("series.linear_combination", 0.0),
        "calabi.graded_blocks_s": st.get("calabi.graded_blocks", 0.0),
        "calabi.psd_verdict_s": st.get("calabi.psd_verdict", 0.0),
        "calabi.largest_block": max([0] + [o.counts.get("largest_block", 0) for o in outcomes]),
        "gram.search_s": st.get("gram.search", 0.0),
        "gram.evals_used": total("evals_used"),
        "gram.restarts_used": total("restarts_used"),
        "gram.objective_s_per_eval": per_call("gram.objective", "objective_calls"),
        "gram.witnesses_per_kevals": (
            sum(o.witness for o in gap_searches) / gap_kevals if gap_kevals else 0.0
        ),
        "domains.contains_s_per_call": per_call("domains.contains", "contains_calls"),
        "domains.generic_norm_eval_s_per_call": per_call(
            "domains.generic_norm_eval", "norm_calls"
        ),
        "cartan_hartogs.closed_form_s": st.get("cartan_hartogs.closed_form", 0.0),
        "cartan_hartogs.closed_form_steps": total("closed_form_steps"),
        "cartan_hartogs.block_assembly_s": st.get("cartan_hartogs.block_assembly", 0.0),
        "cartan_hartogs.einstein_point_s": st.get("cartan_hartogs.einstein_point", 0.0),
        "trace.glue_s": st.get("bench.case", 0.0),
        "trace.unaccounted_s": traced_wall - case_time,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up time in fresh processes, so the import is cold every time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _blas() -> dict:
    """BLAS library and thread count; threads above nproc are clamped."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        return out
    lib = ctypes.CDLL(str(libs[0]))
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            out["threads"] = get()
            nproc = len(os.sched_getaffinity(0))
            if out["threads"] > nproc:
                put(nproc)
                out["threads_clamped_from"], out["threads"] = out["threads"], get()
            return out
    return out


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host_before = reference_s() if args.setup_probe else None
    started = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wallachkit.cli  # timed: the cost of starting the CLI
    except ImportError as exc:
        print(f"cannot import wallachkit from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(wallachkit.cli.__file__).resolve().parents:
        print(f"wallachkit was not imported from {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.setup()
        setup_s = time.perf_counter() - started
        host_s = (host_before + reference_s()) / 2
        print(json.dumps({"setup_s": setup_s, "host_s": host_s}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = started + RUN_BUDGET_S
    signal.signal(signal.SIGALRM, _on_alarm)
    meta = metadata(args.seed)
    record: dict = {"workload": args.workload, "trace": args.trace, "meta": meta}
    if args.trace:
        tracer = Tracer()
        workload.setup(tracer)
        t0 = time.perf_counter()
        traced = [
            attempt(workload, lambda c: workload.traced(c, tracer), c, deadline, tracer)
            for c in workload.cases
        ]
        traced_wall = time.perf_counter() - t0
        passes = run_passes(workload, args.seconds - traced_wall, deadline)
        untraced_wall = statistics.median(p.wall - sum(r.host_s for r in p.records)
                                          for p in passes)  # without the reference loops
        values = per_layer(tracer, traced, traced_wall, untraced_wall, workload, import_s)
        # Compare on the counts both paths report.
        shared = {k for r in passes[0].records if r.outcome for k in r.outcome.counts}
        composed_ok = signature(traced, shared) == signature(passes[0].records, shared)
        first, records = signature(traced), traced + [r for p in passes for r in p.records]
        metric_kind = "per_layer"
        record["spans"] = tracer.as_records()
    else:
        probes = measure_setup(args.workload, args.seed)
        workload.setup()
        passes = run_passes(workload, args.seconds, deadline)
        setup_s = statistics.median(p["setup_s"] * REF_NOMINAL_S / p["host_s"] for p in probes)
        values = end_to_end(passes, setup_s)
        composed_ok = True
        first, records = signature(passes[0].records), [r for p in passes for r in p.records]
        metric_kind = "end_to_end"
        record["setup_probes"] = probes
        record["unscaled"] = end_to_end(passes, statistics.median(p["setup_s"] for p in probes),
                                        scaled=False)
    repeats = all(signature(p.records) == signature(passes[0].records) for p in passes)
    failed = count_failed(records)
    units = {m["name"]: m["unit"] for m in declared[metric_kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    result = {
        "correct": failed == 0 and repeats and composed_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record.update(
        digest=digest(first),
        passes=len(passes),
        repeats=repeats,
        composed_matches_untraced=composed_ok,
        cases=[
            {"case": r.case, "seconds": r.seconds, "host_s": r.host_s,
             "host_after_s": r.host_after_s, "error": r.error,
             "outcome": None if r.outcome is None else vars(r.outcome)}
            for r in records
        ],
        result=result,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=repr))
    for r in records:
        if r.error or not r.outcome.agrees:
            print(f"FAILED {r.case}: {r.error or 'disagrees with oracle'}")
    print(f"meta {json.dumps(meta)}")
    print(f"digest {record['digest']} passes {len(passes)} repeats {repeats} "
          f"composed_matches_untraced {composed_ok} record {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
