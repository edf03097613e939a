"""Tests of the benchmark's own helpers: python3 -m pytest -q perfbench"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, percentile, self_times  # noqa: E402
from workloads import Outcome  # noqa: E402


def test_wallach_oracle_i22_gap_is_open_unit_interval():
    member = lambda lam: oracle.wallach_member("I:2,2", Fraction(lam))  # noqa: E731
    assert member(0) and member(1) and member("1.000001") and member(5)
    for lam in ("0.000001", "0.5", "0.999999"):
        assert not member(lam), lam


def test_wallach_oracle_discrete_points_of_rank_three():
    inv = oracle.invariants("III:3")
    assert inv.discrete == (0, Fraction(1, 2), 1) and inv.threshold == 1
    assert oracle.wallach_member("III:3", Fraction(1, 2))
    assert not oracle.wallach_member("III:3", Fraction(3, 4))


def test_ch_oracle_einstein_threshold_is_five_quarters():
    spec = "CHD(I:2,2;mu=einstein)"
    assert oracle.parse_chd(spec) == ("I:2,2", Fraction(4, 5))
    assert oracle.ch_induced(spec, Fraction(5, 4))
    assert oracle.ch_induced(spec, Fraction(2))
    for c in ("1.2", "1.249999", "1"):
        assert not oracle.ch_induced(spec, Fraction(c)), c


def test_ch_oracle_tiny_mu_answers_at_once():
    assert not oracle.ch_induced("CHD(I:2,2;mu=1e-300)", Fraction(1))


def test_einstein_constant_is_minus_base_dimension_minus_two():
    assert oracle.einstein_constant("CHD(CH:1;mu=1)") == -3
    assert oracle.einstein_constant("CHD(I:2,2;mu=einstein)") == -6
    assert oracle.einstein_constant("CHD(IV:3;mu=einstein)") == -5


@pytest.mark.parametrize("spec", ["I:2,3", "III:3", "IV:5", "CH:2"])
def test_oracle_norm_matches_program_evaluator(spec):
    from wallachkit import domains

    dom = domains.parse_domain(spec)
    x, y = domains.sample_points(dom, 2, 7)
    assert oracle.generic_norm(spec, x, y) == pytest.approx(
        domains.generic_norm_eval(dom, x, y), abs=1e-13
    )


def test_gram_oracle_confirms_a_witness_only_inside_the_gap():
    from wallachkit import domains, gram

    res = gram.search_violation(domains.parse_domain("I:2,2"), 0.5, seed=1)
    assert res.found
    points = list(res.report.points)
    assert oracle.gram_min_eigenvalue("I:2,2", 0.5, points) < -1e-6
    assert oracle.gram_min_eigenvalue("I:2,2", 1.5, points) > -1e-12


def test_percentile_interpolates_between_closest_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert percentile([float(v) for v in range(1, 11)], 0.9) == pytest.approx(9.1)
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, "c"),
        Span("a", 1.0, 4.0, 0, "c"),
        Span("leaf", 2.0, 3.0, 1, "c"),
        Span("b", 5.0, 6.0, 0, "c"),
        Span("a", 7.0, 8.0, 0, "c"),
    ]
    assert self_times(spans) == {"root": 5.0, "a": 3.0, "leaf": 1.0, "b": 1.0}
    assert sum(self_times(spans).values()) == 10.0


def test_tracer_links_nested_spans_and_closes_on_error():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer", "c"):
            with tracer.span("inner", "c"):
                raise RuntimeError
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _record(case, verdict, counts, agrees=True, **kw):
    return run.Record(case, 0.5, Outcome(verdict, agrees, counts, **kw), None)


def test_signature_is_order_free_and_restricts_counts():
    a = _record("b", (True,), {"evals_used": 3, "extra": 1})
    b = _record("a", (False,), {"evals_used": 5})
    assert run.signature([a, b]) == run.signature([b, a])
    assert run.signature([a], {"evals_used"}) == [["b", [True], {"evals_used": 3}]]
    failed = run.Record("c", 1.0, None, "timed out")
    assert run.signature([failed]) == [["c", "error"]]
    assert run.count_failed([a, failed, _record("d", (), {}, agrees=False)]) == 2


def test_end_to_end_coverage_and_accuracy_floors():
    gap_hit = _record("x", (True,), {}, gap=True, witness=True)
    gap_miss = _record("y", (False,), {}, gap=True, witness=False)
    closed_form_only = _record("z", (False,), {}, gap=True, witness=None)
    values = run.end_to_end([run.Pass([gap_hit, gap_miss, closed_form_only], 3.0)], 0.1)
    assert values["witness_coverage"] == 0.5
    assert values["verdicts_per_s"] == 2.0  # three verdicts of 0.5 s
    assert values["einstein_max_residual"] == run.ACCURACY_FLOOR
    member = _record("w", (True,), {})
    assert run.end_to_end([run.Pass([member], 1.0)], 0.1)["witness_coverage"] == 1.0


def test_times_are_scaled_to_the_reference_host_speed():
    slow = [_record(c, (True,), {}) for c in "ab"]
    for r in slow:
        r.host_s = r.host_after_s = 2 * run.REF_NOMINAL_S  # the host ran at half speed
    scaled = run.end_to_end([run.Pass(slow, 1.0)], 0.1)
    raw = run.end_to_end([run.Pass(slow, 1.0)], 0.1, scaled=False)
    assert scaled["verdict_p50_s"] == 0.25 and raw["verdict_p50_s"] == 0.5
    assert scaled["verdicts_per_s"] == 2 * raw["verdicts_per_s"]
    # Each verdict is scaled by the loops on either side of it.
    slow[0].host_after_s = run.REF_NOMINAL_S
    assert slow[0].scale == pytest.approx(2 / 3) and slow[1].scale == 0.5


def test_time_quantiles_do_not_depend_on_the_number_of_passes():
    def make_pass(seconds):
        return run.Pass([run.Record(c, t, Outcome((True,), True, {}), None)
                         for c, t in zip("abcde", seconds)], sum(seconds))

    times = [0.1, 0.2, 0.3, 1.0, 5.0]
    two = run.end_to_end([make_pass(times)] * 2, 0.1)
    three = run.end_to_end([make_pass(times)] * 3, 0.1)
    for name in ("verdicts_per_s", "verdict_p50_s", "verdict_p90_s"):
        assert two[name] == three[name]
    assert two["verdict_p90_s"] == pytest.approx(1.0 + 0.6 * 4.0)
    # A case's slow pass is outvoted by its other passes.
    slow = make_pass([t * 2 for t in times])
    assert run.end_to_end([make_pass(times)] * 2 + [slow], 0.1) == three


def test_a_hanging_verdict_times_out_and_counts_as_failed(monkeypatch):
    import signal
    import time

    from wallachkit import cartan_hartogs as chm

    class Hang:
        ch = chm.parse_ch_spec("CHD(I:2,2;mu=1e-300)")  # steps through m up to 1e300

        def before_verdict(self):
            pass

        def run(self, case):
            return chm.ch_projectively_induced(self.ch, 1.0)

    class Case:
        id = "ch-check mu=1e-300"

    monkeypatch.setattr(run, "VERDICT_LIMIT_S", 0.3)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        rec = run.attempt(Hang(), Hang().run, Case(), time.perf_counter() + 60)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rec.outcome is None and rec.error.startswith("timed out")
    assert rec.seconds < 5
    assert run.count_failed([rec]) == 1
