"""Unit tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.obs.chrometrace import (
    chrome_trace_document,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    absorb_dataclass,
    config_snapshot,
)
from repro.obs.report import render_profile, time_split
from repro.obs.trace import (
    Span,
    Tracer,
    counter,
    current_tracer,
    derive_span_id,
    graft,
    span,
    span_payloads,
    span_timings,
    tracing,
)

UNSTABLE = """
int write_check(char *buf, char *buf_end, unsigned int len) {
    if (buf + len >= buf_end) return -1;
    if (buf + len < buf) return -1;
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Span identity
# ---------------------------------------------------------------------------


class TestSpanIdentity:
    def test_ids_are_pure_functions_of_path(self):
        assert derive_span_id("", "run", 0) == derive_span_id("", "run", 0)
        assert derive_span_id("", "run", 0) != derive_span_id("", "run", 1)
        assert derive_span_id("", "a", 0) != derive_span_id("", "b", 0)
        assert derive_span_id("p1", "a", 0) != derive_span_id("p2", "a", 0)

    def test_children_get_sibling_sequence_numbers(self):
        root = Span("run")
        first = root.child("stage")
        second = root.child("stage")
        assert (first.seq, second.seq) == (0, 1)
        assert first.span_id != second.span_id
        assert first.parent_id == second.parent_id == root.span_id

    def test_identity_payload_excludes_timing(self):
        node = Span("solver.query", args={"verdict": "unsat"})
        node.ts, node.dur = 12.5, 0.25
        payload = node.identity()
        assert payload == {"id": node.span_id, "parent": "",
                           "name": "solver.query", "seq": 0,
                           "args": {"verdict": "unsat"}}

    def test_walk_is_depth_first_creation_order(self):
        root = Span("run")
        a = root.child("a")
        a.child("a1")
        root.child("b")
        assert [n.name for n in root.walk()] == ["run", "a", "a1", "b"]

    def test_self_time(self):
        root = Span("run")
        root.dur = 1.0
        child = root.child("c")
        child.dur = 0.4
        assert root.self_time() == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_latency_histograms(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", depth=1) as handle:
                handle.set_arg("extra", True)
        root = tracer.finish()
        assert [n.name for n in root.walk()] == ["run", "outer", "inner"]
        inner = root.children[0].children[0]
        assert inner.args == {"depth": 1, "extra": True}
        assert tracer.metrics.histogram("latency.inner").count == 1
        assert tracer.metrics.histogram("latency.outer").count == 1

    def test_module_span_is_noop_without_tracer(self):
        assert current_tracer() is None
        with span("anything", arg=1) as handle:
            handle.set_arg("ignored", True)
        assert handle.span is None and handle.dur == 0.0

    def test_tracing_scope_and_helpers(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
            with span("work", unit="u0"):
                counter("things", 2)
        assert current_tracer() is None
        assert [n.name for n in tracer.root.walk()] == ["run", "work"]
        assert tracer.metrics.counter("things") == 2
        assert tracer.metrics.histogram("latency.work").count == 1

    def test_blob_round_trips_through_graft(self):
        tracer = Tracer(name="unit:u0")
        with tracer.span("stage"):
            with tracer.span("query", verdict="unsat"):
                pass
        blob = tracer.to_blob()
        assert set(blob) == {"spans", "timings", "metrics"}
        parent = Span("run")
        grafted = graft(parent, blob["spans"], blob["timings"], offset=5.0)
        assert grafted.name == "unit:u0"
        assert [n.name for n in parent.walk()] == \
            ["run", "unit:u0", "stage", "query"]
        # Ids re-derive from the new path; args and offsets survive.
        assert grafted.span_id == derive_span_id(parent.span_id, "unit:u0", 0)
        query = parent.children[0].children[0].children[0]
        assert query.args == {"verdict": "unsat"}
        assert query.ts >= 5.0


class TestGraft:
    def test_graft_position_determines_ids(self):
        source = Span("unit")
        source.child("a")
        payloads = span_payloads(source)
        left, right = Span("run"), Span("run")
        right.child("occupied")          # shifts the graft to sibling slot 1
        g0 = graft(left, payloads)
        g1 = graft(right, payloads)
        assert g0.span_id != g1.span_id
        assert g1.seq == 1
        # Same position, same payloads -> byte-identical subtree payloads.
        again = Span("run")
        assert span_payloads(graft(again, payloads)) == span_payloads(g0)

    def test_empty_payloads(self):
        assert graft(Span("run"), []) is None

    def test_orphan_rows_attach_to_subtree_root(self):
        payloads = [
            {"id": "r", "parent": "", "name": "unit", "seq": 0, "args": {}},
            {"id": "x", "parent": "missing", "name": "stray", "seq": 0,
             "args": {}},
        ]
        root = Span("run")
        grafted = graft(root, payloads)
        assert [n.name for n in grafted.walk()] == ["unit", "stray"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_histogram_buckets_and_stats(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.total == pytest.approx(55.5)

    def test_histogram_merge_same_layout(self):
        a, b = Histogram((1.0,)), Histogram((1.0,))
        a.observe(0.5)
        b.observe(2.0)
        a.merge(b)
        assert a.bucket_counts == [1, 1] and a.count == 2

    def test_histogram_merge_rejects_another_layout(self):
        a, b = Histogram((1.0,)), Histogram((0.5, 2.0))
        b.observe(0.25)
        with pytest.raises(ValueError):
            a.merge(b)
        assert a.count == 0

    def test_registry_snapshot_round_trip_and_merge(self):
        reg = MetricsRegistry()
        reg.inc("queries", 3)
        reg.set_gauge("workers", 2)
        reg.observe("latency.x", 0.01)
        clone = MetricsRegistry.from_snapshot(reg.snapshot())
        assert clone.snapshot() == reg.snapshot()
        clone.merge(reg)
        assert clone.counter("queries") == 6
        assert clone.gauges["workers"] == 2          # gauges merge by max
        assert clone.histogram("latency.x").count == 2

    def test_snapshot_is_json_safe_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)

    def test_absorb_dataclass_prefixes_and_gauges(self):
        from repro.solver.solver import SolverStats

        stats = SolverStats(sat_calls=4, oracle_sat=2)
        reg = absorb_dataclass(MetricsRegistry(), "solver", stats)
        assert reg.counter("solver.sat_calls") == 4
        assert reg.counter("solver.oracle_sat") == 2

    def test_config_snapshot_is_json_safe(self):
        snap = config_snapshot(CheckerConfig())
        json.dumps(snap)
        assert snap["trace"] is False
        assert list(snap) == sorted(snap)
        with pytest.raises(TypeError):
            config_snapshot(42)


# ---------------------------------------------------------------------------
# Stats read-through: the run summary schema
# ---------------------------------------------------------------------------


class TestReadThrough:
    def test_run_stats_as_dict_via_registry(self):
        from repro.engine.engine import RunStats

        stats = RunStats(units=3, queries=9, cache_hits=2, workers=4,
                         sat_calls=1)
        payload = stats.as_dict()
        assert payload["units"] == 3
        assert payload["queries"] == 9
        assert payload["cache_hits"] == 2
        assert payload["workers"] == 4
        assert payload["solver"]["sat_calls"] == 1


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def _tree(self):
        root = Span("run")
        root.dur = 2.0
        stage = root.child("stage", args={"unit": "u0"})
        stage.ts, stage.dur = 0.5, 1.0
        return root

    def test_events_are_complete_events_in_microseconds(self):
        events = chrome_trace_events(self._tree())
        assert [e["name"] for e in events] == ["run", "stage"]
        stage = events[1]
        assert stage["ph"] == "X"
        assert stage["ts"] == 500_000 and stage["dur"] == 1_000_000
        assert stage["args"]["unit"] == "u0"
        assert stage["args"]["id"]

    def test_document_validates_and_writes(self, tmp_path):
        document = chrome_trace_document(self._tree(),
                                         metrics={"queries": 3})
        validate_chrome_trace(document)
        assert document["otherData"]["metrics"] == {"queries": 3}
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._tree())
        validate_chrome_trace(json.loads(path.read_text()))

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("traceEvents"),
        lambda d: d["traceEvents"].append({"name": "x"}),
        lambda d: d["traceEvents"][0].update(ph="?"),
        lambda d: d["traceEvents"][0].update(ts="soon"),
    ])
    def test_validation_rejects_malformed_documents(self, mutate):
        document = chrome_trace_document(self._tree())
        mutate(document)
        with pytest.raises(ValueError):
            validate_chrome_trace(document)


# ---------------------------------------------------------------------------
# Text profile
# ---------------------------------------------------------------------------


class TestProfile:
    def test_time_split_buckets_by_prefix(self):
        root = Span("run")
        root.dur = 3.0
        query = root.child("solver.query")
        query.dur = 1.0
        stage = root.child("stage2.encode")
        stage.dur = 0.5
        split = time_split(root)
        assert split["solver"] == pytest.approx(1.0)
        assert split["encode"] == pytest.approx(0.5)

    def test_render_profile_lists_slowest_spans(self):
        root = Span("run")
        root.dur = 2.0
        slow = root.child("solver.query")
        slow.dur = 1.5
        text = render_profile(root, top=5)
        assert "solver.query" in text
        assert "solver" in text


# ---------------------------------------------------------------------------
# Pipeline integration: stages 1-6 show up in a traced check
# ---------------------------------------------------------------------------


class TestPipelineSpans:
    def test_traced_check_covers_stages_and_repair_gates(self):
        tracer = Tracer()
        with tracing(tracer):
            report = check_source(
                UNSTABLE, config=CheckerConfig(validate_witnesses=True,
                                               repair=True, trace=True))
        assert report.bugs
        names = {n.name for n in tracer.root.walk()}
        for expected in ("stage1.parse", "stage1.analyze", "stage1.lower",
                         "check.function", "stage2.encode",
                         "stage3.elimination", "stage3.simplification",
                         "stage4.report", "stage5.witness", "stage6.repair",
                         "solver.query", "witness.replay"):
            assert expected in names, expected
        # Every solver query span carries its verdict and the repair stage
        # ran at least one gate.
        queries = [n for n in tracer.root.walk() if n.name == "solver.query"]
        assert queries and all("verdict" in n.args for n in queries)
        assert any(n.name.startswith("repair.gate.")
                   for n in tracer.root.walk())
        # Latency histograms came along for free.
        assert tracer.metrics.histogram("latency.solver.query").count \
            == len(queries)
