"""Tests of the benchmark harness: statistics, host-speed scaling, self-time
arithmetic, the layer tracer and seeded corpus generation."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.corpus import FUZZ_PROGRAMS, build_corpus  # noqa: E402
from perfbench.hostspeed import (QUIET_TICKS, REFERENCE_TICK_S,  # noqa: E402
                                 TICK_PERIOD_S, HostSpeed, tick_work)
from perfbench.layers import (Span, Tracer, covered, entry_points,  # noqa: E402
                              layer_totals, same_entry_points, self_times)
from perfbench.stats import (MIN_BEYOND, percentile,  # noqa: E402
                             quartile_spread, tail_percentile)


# -- percentiles and the sample-count rule --------------------------------------


def test_percentile_is_nearest_rank_with_count_beyond():
    values = list(range(1, 101))                 # 1..100
    assert percentile(values, 0.5) == (50, 50)
    assert percentile(values, 0.9) == (90, 10)
    assert percentile([3.0], 0.9) == (3.0, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert MIN_BEYOND == 10
    assert tail_percentile(list(range(100)), 0.9) == 89
    assert tail_percentile(list(range(99)), 0.9) is None    # 9 beyond
    assert tail_percentile(list(range(20)), 0.5) == 9       # 10 beyond
    assert tail_percentile(list(range(19)), 0.5) is None
    assert tail_percentile([], 0.9) is None


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 5) == 0.0
    spread = quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0])
    assert spread == pytest.approx((11.5 - 8.5) / 10.0)


# -- host-speed scaling -------------------------------------------------------------


def test_scaled_divides_by_the_median_tick_near_the_interval():
    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 10.0]
    # A host at half speed, then at full speed far from the first interval.
    speed.durations = [2 * REFERENCE_TICK_S] * 3 + [REFERENCE_TICK_S]
    assert speed.scaled(0.5, 1.5) == pytest.approx(0.5)
    # No tick near the interval: every tick speaks for it.
    assert speed.tick_near(30.0, 31.0) == pytest.approx(2 * REFERENCE_TICK_S)
    assert speed.scaled(10.0, 12.0) == pytest.approx(2.0)


def test_scaled_is_the_wall_time_without_ticks():
    assert HostSpeed().tick_near(0.0, 1.0) is None
    assert HostSpeed().scaled(1.0, 3.5) == 2.5


def test_host_speed_ticks_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    speed.start()
    try:
        time.sleep(4 * TICK_PERIOD_S)
        with speed.paused():
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getitimer(signal.ITIMER_REAL)[1] == \
            pytest.approx(TICK_PERIOD_S)
    finally:
        speed.stop()
    assert len(speed.durations) >= 2
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert tick_work() == tick_work()


def test_end_to_end_scales_every_time():
    from perfbench.run import end_to_end
    from perfbench.workloads import Outcome

    outcome = Outcome(samples=[(0.0, 1.0), (1.0, 3.0)], units=30,
                      windows=[(0.0, 1.0), (1.0, 3.0)], checked=30,
                      matched=30, queries=10)
    metrics = end_to_end(outcome, [(0.0, 0.5), (1.0, 1.2), (2.0, 2.4)],
                         lambda start, end: (end - start) / 2)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["units_per_s"] == pytest.approx(30 / 1.5)
    assert metrics["latency_p50_ms"] == pytest.approx(750.0)
    assert metrics["verdict_accuracy"] == 1.0


def test_sample_ticks_on_each_cpu_and_restores_the_affinity():
    allowed = os.sched_getaffinity(0)
    speed = HostSpeed()
    speed.sample(allowed)
    assert os.sched_getaffinity(0) == allowed
    assert len(speed.durations) == QUIET_TICKS * len(allowed)
    speed.sample()
    assert len(speed.durations) == QUIET_TICKS * (len(allowed) + 1)
    assert speed.starts == sorted(speed.starts)


# -- self-time arithmetic ---------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 20.0)]) == 3.0
    assert covered(0.0, 10.0, [(1.0, 2.0), (5.0, 6.0)]) == 2.0
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_children_and_sums_to_the_root():
    spans = [
        Span(1, 0, 1, "engine", 0.0, 10.0),
        Span(2, 1, 1, "solver", 1.0, 6.0),
        Span(3, 2, 1, "sat", 2.0, 5.0),
        Span(4, 2, 1, "bitblast", 1.5, 2.0),
        Span(5, 1, 1, "sink", 7.0, 8.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 4.0, 2: 1.5, 3: 3.0, 4: 0.5, 5: 1.0}
    assert sum(selfs.values()) == pytest.approx(10.0)
    totals = layer_totals(spans)
    assert totals["engine"] == (1, 4.0)
    assert totals["sat"] == (1, 3.0)


def test_self_time_is_never_negative_with_overlapping_children():
    spans = [Span(1, 0, 1, "engine", 0.0, 4.0),
             Span(2, 1, 1, "a", 0.0, 3.0),
             Span(3, 1, 1, "b", 1.0, 4.0)]
    assert self_times(spans)[1] == 0.0


# -- the accounting gate ------------------------------------------------------------


def _accounting_problems(spans):
    from perfbench.workloads import Outcome, _check_accounting

    outcome = Outcome()
    _check_accounting(outcome, spans)
    return outcome.problems


def test_accounting_accepts_nested_spans_the_layers_claim():
    spans = [Span(1, 0, 1, "engine", 0.0, 10.0),
             Span(2, 1, 1, "frontend", 0.0, 4.0),
             Span(3, 1, 1, "sat", 4.5, 10.0)]
    assert _accounting_problems(spans) == []


def test_accounting_fails_on_time_no_layer_claims():
    from perfbench.workloads import UNCLAIMED_TOLERANCE

    unclaimed = 10.0 * (UNCLAIMED_TOLERANCE + 0.01)
    spans = [Span(1, 0, 1, "engine", 0.0, 10.0),
             Span(2, 1, 1, "sat", unclaimed, 10.0)]
    assert any("no layer claims" in p for p in _accounting_problems(spans))


def test_accounting_fails_on_a_span_outside_its_parent():
    ends_late = [Span(1, 0, 1, "engine", 0.0, 10.0),
                 Span(2, 1, 1, "sat", 1.0, 11.0)]
    other_trace = [Span(1, 0, 1, "engine", 0.0, 10.0),
                   Span(2, 1, 2, "sat", 1.0, 9.0)]
    for spans in (ends_late, other_trace):
        assert any("outside its parent" in p
                   for p in _accounting_problems(spans))


# -- the layer tracer ---------------------------------------------------------------


SOURCE = """
int f(int *p) {
    int x = *p;
    if (!p) return -1;
    return x;
}
"""


def test_tracer_records_layers_and_removes_every_wrapper():
    from repro.api import check_source

    before = entry_points()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_trace()
        report = tracer.span("engine", check_source, SOURCE)
    finally:
        tracer.remove()
    assert same_entry_points(before, entry_points())
    assert report.bugs

    totals = layer_totals(tracer.spans)
    for layer in ("engine", "frontend", "lower", "core", "solver"):
        assert totals[layer][0] >= 1, layer
    assert totals["frontend"][0] == 2                  # parse, analyze
    selfs = self_times(tracer.spans)
    assert min(selfs.values()) >= 0.0
    root = next(s for s in tracer.spans if s.parent == 0)
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert all(s.trace == root.trace for s in tracer.spans)


def test_recursive_calls_join_the_outer_span():
    tracer = Tracer()

    def countdown(n):
        return n if n == 0 else tracer.call("rec", countdown, (n - 1,), {})

    assert tracer.call("rec", countdown, (5,), {}) == 0
    assert [s.layer for s in tracer.spans] == ["rec"]


def test_write_spans_round_trips(tmp_path):
    tracer = Tracer()
    tracer.span("engine", sum, [1, 2])
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 1 and rows[0][3] == "engine"


# -- seeded corpus generation --------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    first, second = build_corpus(7), build_corpus(7)
    assert first == second
    assert first.render(3) == second.render(3)


def test_different_seed_gives_a_different_fuzz_draw():
    def fuzz(corpus):
        return sorted(t.template for t in corpus.templates
                      if t.name.startswith("fuzz-"))

    assert fuzz(build_corpus(7)) != fuzz(build_corpus(8))


def test_corpus_contents_and_fresh_identifiers():
    corpus = build_corpus(7)
    names = [t.name for t in corpus.templates]
    assert len(names) == 30 + FUZZ_PROGRAMS == len(set(names))
    assert sum(n.startswith("snippet-") for n in names) == 30
    assert any(t.expected_unstable for t in corpus.templates)
    assert not all(t.expected_unstable for t in corpus.templates)
    first, second = corpus.render(1), corpus.render(2)
    assert [name for name, _ in first] == [name for name, _ in second]
    assert all(a != b for (_, a), (_, b) in zip(first, second))
    assert all("{S}" not in source for _, source in first)


# -- BENCHMARK.json agrees with the harness -------------------------------------------


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    from perfbench.run import END_TO_END_UNITS
    from perfbench.workloads import PER_LAYER_UNITS, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS
