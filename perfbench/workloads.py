"""The four benchmark workloads.

Each workload turns the seed into a list of cases and answers each case two
ways: `run` is the untraced verdict a user gets from the public API (or the
CLI), and `traced` composes the same verdict from the layers' public calls
with a span around each call.  Both return an Outcome that the runner checks
against the independent oracles in oracle.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracle
from spans import Tracer
from wallachkit import calabi, cartan_hartogs as chm, cli, domains, gram, multiindex
from wallachkit import series as hs

GRAM_POINTS = 6
GRAM_BUDGET = 2000
# Calls per micro-timing of the Gram objective, contains and the norm evaluator.
MICRO_REPS = 10


@dataclass(frozen=True)
class Case:
    id: str
    spec: str
    value: str  # lambda or c as written, so the oracle reads it exactly
    cutoff: int | None = None
    seed: int | None = None
    index: int = 0


@dataclass
class Outcome:
    verdict: tuple  # the program's answer; must repeat exactly
    agrees: bool  # matches the independent oracle
    counts: dict = field(default_factory=dict)  # exact work counts
    gap: bool = False  # the oracle puts the scale outside the inducible set
    witness: bool | None = None  # None: no witness path was run
    residual: float | None = None
    k_err: float | None = None


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_program_caches() -> None:
    """Empty every lru cache and module-level *_CACHE dict in wallachkit."""
    for name, mod in list(sys.modules.items()):
        if name != "wallachkit" and not name.startswith("wallachkit."):
            continue
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif attr.endswith("_CACHE") and isinstance(obj, dict):
                obj.clear()


class _RSSProbe:
    """High-water growth of ru_maxrss over a baseline, across calls."""

    def __init__(self) -> None:
        self.base = maxrss_mb()
        self.growth = 0.0

    def after_call(self) -> None:
        self.growth = max(self.growth, maxrss_mb() - self.base)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases = self.make_cases(random.Random(seed))
        self.rss = _RSSProbe()
        self.setup_counts: dict[str, int] = {}  # exact counts of traced set-up work

    def make_cases(self, rng: random.Random) -> list[Case]:
        raise NotImplementedError

    def setup(self, tracer: Tracer | None = None) -> None:
        """Domain parse plus the warm-up the workload declares."""

    def before_verdict(self) -> None:
        """Untimed preparation of the next verdict."""

    def run(self, case: Case) -> Outcome:
        raise NotImplementedError

    def traced(self, case: Case, tracer: Tracer) -> Outcome:
        raise NotImplementedError


# --- shared compositions ---------------------------------------------------------


def _compose_powers(dom, cutoff: int, case_id: str, tracer: Tracer, rss: _RSSProbe):
    with tracer.span("domains.one_minus_norm", case_id):
        q = domains.one_minus_norm(dom, cutoff)
    with tracer.span("series.power_sequence", case_id):
        powers = hs.power_sequence(q)
    rss.after_call()
    return powers


def _compose_verdict(powers, dom, lam: float, case_id: str, tracer: Tracer):
    """N^(-lam) - 1 from cached powers, then blocks and their PSD verdict."""
    weights = [hs.generalized_binomial(lam, k) for k in range(1, len(powers) + 1)]
    with tracer.span("series.linear_combination", case_id):
        s = hs.linear_combination(powers, weights)
    with tracer.span("calabi.graded_blocks", case_id):
        cm = calabi.graded_blocks(s, domain_spec=dom.spec_string, lam=lam)
    with tracer.span("calabi.psd_verdict", case_id):
        return calabi.psd_verdict(cm)


def _largest(verdict) -> int:
    return max(bv.dim for bv in verdict.per_block)


def _cli_json(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    if code not in (0, 2):
        raise RuntimeError(f"wallachkit {' '.join(argv)} exited {code}: {err.getvalue()}")
    return json.loads(out.getvalue())


# --- cold_verdicts ------------------------------------------------------------------


class ColdVerdicts(Workload):
    """First-touch CLI verdicts, each at its own (domain, cutoff), caches cold."""

    name = "cold_verdicts"
    CASES = (
        ("calabi", "I:3,3", "1.5", 6),
        ("calabi", "IV:6", "2.0", 8),
        ("calabi", "III:3", "0.75", 7),
        ("calabi", "I:2,3", "1.0", 7),
        ("ch-check", "CHD(I:2,2;mu=einstein)", "1.2", 6),
        ("ch-check", "CHD(I:2,2;mu=einstein)", "1.25", 6),
        ("ch-check", "CHD(I:2,2;mu=1e-5)", "1", None),
    )

    def make_cases(self, rng):
        cases = [
            Case(f"{cmd} {spec} {value} cutoff={cutoff}", spec, value, cutoff)
            for cmd, spec, value, cutoff in self.CASES
        ]
        rng.shuffle(cases)
        return cases

    def before_verdict(self):
        clear_program_caches()  # each CLI call is a fresh process

    def setup(self, tracer=None):
        for case in self.cases:
            if case.spec.startswith("CHD("):
                chm.parse_ch_spec(case.spec)
            else:
                domains.parse_domain(case.spec)

    def run(self, case):
        if case.spec.startswith("CHD("):
            argv = ["ch-check", case.spec, "--c", case.value]
            if case.cutoff is not None:
                argv += ["--cutoff", str(case.cutoff)]
            report = _cli_json(argv)
            v = report["verdicts"]
            psd = v.get("truncated_psd")
            counts = {"closed_form_steps": len(v["checked_m"])}
            if psd is not None:
                counts["largest_block"] = max(b["dim"] for b in report["per_block"])
            return self._ch_outcome(case, v["induced_closed_form"], psd, counts)
        report = _cli_json(
            ["calabi", case.spec, "--cutoff", str(case.cutoff), "--lambda", case.value]
        )
        dims = [b["dim"] for b in report["per_block"]]
        counts = {"basis_m": 1 + sum(dims), "largest_block": max(dims)}
        return _calabi_outcome(case, report["verdicts"]["truncated_psd"], counts)

    def traced(self, case, tracer):
        if case.spec.startswith("CHD("):
            ch = chm.parse_ch_spec(case.spec)
            c = float(case.value)
            with tracer.span("cartan_hartogs.closed_form", case.id):
                cf = chm.ch_projectively_induced(ch, c)
            counts = {"closed_form_steps": len(cf.checked)}
            psd = None
            if case.cutoff is not None:
                with tracer.span("cartan_hartogs.block_assembly", case.id):
                    cm = chm.ch_block_assembly(ch, c, case.cutoff)
                with tracer.span("calabi.psd_verdict", case.id):
                    verdict = calabi.psd_verdict(cm)
                psd = verdict.psd
                counts["largest_block"] = _largest(verdict)
            return self._ch_outcome(case, cf.induced, psd, counts)
        dom = domains.parse_domain(case.spec)
        with tracer.span("multiindex.basis", case.id):
            m = len(multiindex.basis(dom.d, case.cutoff))
        powers = _compose_powers(dom, case.cutoff, case.id, tracer, self.rss)
        verdict = _compose_verdict(powers, dom, float(case.value), case.id, tracer)
        counts = {
            "basis_m": m,
            "largest_block": _largest(verdict),
            "powers_nnz": sum(len(p.coeffs) for p in powers),
        }
        return _calabi_outcome(case, verdict.psd, counts)

    @staticmethod
    def _ch_outcome(case, induced, psd, counts):
        expected = oracle.ch_induced(case.spec, Fraction(case.value))
        agrees = induced == expected and (psd is None or psd == expected)
        witness = None if psd is None else not psd
        return Outcome((induced, psd), agrees, counts, not expected, witness)


def _calabi_outcome(case: Case, psd: bool, counts: dict) -> Outcome:
    member = oracle.wallach_member(case.spec, Fraction(case.value))
    return Outcome((psd,), psd == member, counts, not member, not psd)


# --- lambda_scan --------------------------------------------------------------------


class LambdaScan(Workload):
    """One domain, many scales: powers built once in set-up, read per lambda."""

    name = "lambda_scan"
    SPEC = "III:3"
    CUTOFF = 7

    def make_cases(self, rng):
        # lambda = k/40 hits the Wallach points 0.5 and 1.0 exactly.
        cases = [Case(f"lambda={k}/40", self.SPEC, f"{k}/40", self.CUTOFF) for k in range(1, 121)]
        rng.shuffle(cases)
        return cases

    def setup(self, tracer=None):
        self.dom = domains.parse_domain(self.SPEC)
        calabi.bergman_diastasis_series(self.dom, 1.0, self.CUTOFF)  # fills the power cache
        if tracer is not None:
            with tracer.span("bench.setup", "setup"):
                self.powers = _compose_powers(self.dom, self.CUTOFF, "setup", tracer, self.rss)
            self.setup_counts["powers_nnz"] = sum(len(p.coeffs) for p in self.powers)

    def run(self, case):
        rows = calabi.scan_lambdas(self.dom, [float(Fraction(case.value))], self.CUTOFF)
        psd = all(row.psd for row in rows)
        counts = {"largest_block": max(row.block_dim for row in rows)}
        return _calabi_outcome(case, psd, counts)

    def traced(self, case, tracer):
        lam = float(Fraction(case.value))
        verdict = _compose_verdict(self.powers, self.dom, lam, case.id, tracer)
        return _calabi_outcome(case, verdict.psd, {"largest_block": _largest(verdict)})


# --- gram_search --------------------------------------------------------------------


class GramSearch(Workload):
    """Witness search on gaps it finds, gaps it misses, and Wallach members."""

    name = "gram_search"
    CASES = (
        # gaps the degree-2 guidance finds
        ("I:2,2", "0.5"), ("I:2,2", "0.5"), ("I:2,2", "0.5"), ("III:2", "0.25"),
        ("IV:3", "0.3"), ("I:2,3", "0.5"), ("I:3,3", "0.5"),
        # gaps the search currently misses
        ("I:3,3", "1.5"), ("III:3", "0.75"), ("IV:5", "1.0"),
        # Wallach members, which spend the whole budget
        ("I:2,2", "1.0"), ("I:2,2", "1.5"), ("III:2", "0.5"), ("IV:3", "1.0"),
        ("I:2,3", "1.0"), ("III:3", "1.0"), ("IV:5", "3.0"), ("CH:2", "0.5"),
    )

    def make_cases(self, rng):
        cases = [
            Case(f"gram {spec} {value} #{i}", spec, value, seed=self.seed * 1000 + i)
            for i, (spec, value) in enumerate(self.CASES)
        ]
        rng.shuffle(cases)
        return cases

    def setup(self, tracer=None):
        self.doms = {spec: domains.parse_domain(spec) for spec, _ in self.CASES}

    def run(self, case):
        res = gram.search_violation(
            self.doms[case.spec], float(case.value), GRAM_POINTS, GRAM_BUDGET, case.seed
        )
        return self._outcome(case, res)

    def traced(self, case, tracer):
        dom, lam = self.doms[case.spec], float(case.value)
        with tracer.span("gram.search", case.id):
            res = gram.search_violation(dom, lam, GRAM_POINTS, GRAM_BUDGET, case.seed)
        out = self._outcome(case, res)
        # Per-call costs on sampled configurations of the search's shape.
        pts = domains.sample_points(dom, GRAM_POINTS, case.seed, gram.DEFAULT_RADIUS_CAP)
        with tracer.span("gram.objective", case.id):
            for _ in range(MICRO_REPS):
                gram.min_gram_eigenvalue(dom, lam, pts, require_branch=False)
        with tracer.span("domains.contains", case.id):
            for _ in range(MICRO_REPS):
                for p in pts:
                    domains.contains(dom, p)
        with tracer.span("domains.generic_norm_eval", case.id):
            for _ in range(MICRO_REPS):
                for p in pts:
                    domains.generic_norm_eval(dom, p, pts[0])
        out.counts.update(
            objective_calls=MICRO_REPS,
            contains_calls=MICRO_REPS * GRAM_POINTS,
            norm_calls=MICRO_REPS * GRAM_POINTS,
        )
        return out

    @staticmethod
    def _outcome(case, res):
        member = oracle.wallach_member(case.spec, Fraction(case.value))
        agrees = True  # no witness never contradicts the closed form
        if res.found:
            points = [np.asarray(p) for p in res.report.points]
            recheck = oracle.gram_min_eigenvalue(case.spec, float(case.value), points)
            agrees = not member and recheck < -0.5 * gram.DEFAULT_WITNESS_TOL
        counts = {"evals_used": res.evals_used, "restarts_used": res.restarts_used}
        return Outcome((res.found,), agrees, counts, not member, res.found)


# --- einstein_probe -----------------------------------------------------------------


class EinsteinProbe(Workload):
    """The finite-difference Einstein probe at fixed sampled points.

    The points come from fixed sampling seeds with criterion 6's caps, so the
    residuals measure the probe, not the draw; the workload seed sets the
    order in which they are probed.
    """

    name = "einstein_probe"
    # (spec, points, z_radius_cap, w_fiber_cap, sampling seed)
    CASES = (
        ("CHD(CH:1;mu=1)", 3, 0.35, 0.4, 11),
        ("CHD(CH:2;mu=einstein)", 2, 0.3, 0.35, 12),
        ("CHD(IV:3;mu=einstein)", 1, 0.3, 0.35, 12),
    )

    def make_cases(self, rng):
        cases = [
            Case(f"{spec} point {i}", spec, "", index=i)
            for spec, n, *_ in self.CASES
            for i in range(n)
        ]
        rng.shuffle(cases)
        return cases

    def setup(self, tracer=None):
        self.chs, self.points = {}, {}
        for spec, n, z_cap, w_cap, sampling_seed in self.CASES:
            ch = self.chs[spec] = chm.parse_ch_spec(spec)
            rng = np.random.default_rng(sampling_seed)
            for i in range(n):
                self.points[spec, i] = chm.ch_sample(ch, rng, z_cap, w_cap)

    def run(self, case):
        k, res = chm.einstein_residual(self.chs[case.spec], self.points[case.spec, case.index])
        return self._outcome(case, k, res)

    def traced(self, case, tracer):
        with tracer.span("cartan_hartogs.einstein_point", case.id):
            k, res = chm.einstein_residual(
                self.chs[case.spec], self.points[case.spec, case.index]
            )
        return self._outcome(case, k, res)

    @staticmethod
    def _outcome(case, k, res):
        expected = oracle.einstein_constant(case.spec)
        k_err = abs(k - expected)
        agrees = k_err <= oracle.K_REL_TOL * abs(expected) and res <= oracle.residual_bound(
            case.spec
        )
        return Outcome((k, res), agrees, residual=res, k_err=k_err)


WORKLOADS = {w.name: w for w in (ColdVerdicts, LambdaScan, GramSearch, EinsteinProbe)}
