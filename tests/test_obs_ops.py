"""Tests for the operational observability layer (repro.obs.ops,
repro.obs.promexport, repro.obs.flightrec, repro serve wiring,
docs/OBSERVABILITY.md "Operating the daemon")."""

import glob
import json
import math
import os

import pytest

from repro.core.checker import CheckerConfig
from repro.engine.pool import CRASH_META_KEY, TEST_HOOKS_ENV, WarmWorkerPool
from repro.engine.workunit import WorkUnit, check_work_unit
from repro.obs.flightrec import FlightRecorder, validate_flight_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.ops import (
    EventLog,
    Ops,
    SlowQueryRecorder,
    activate_slow_queries,
    note_query,
    restore_slow_queries,
    validate_log_record,
)
from repro.obs.promexport import (
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    validate_prometheus_text,
    write_metrics_file,
)
from repro.serve.top import render_dashboard

UNSTABLE = "int f(int x) { if (x + 1 > x) return 1; return 0; }"


# -- the structured event log ---------------------------------------------------------


def test_event_log_record_schema(tmp_path):
    log = EventLog(path=str(tmp_path / "events.log"), level="debug")
    record = log.emit("info", "server", "listening", socket="x.sock",
                      workers=2)
    log.close()
    validate_log_record(record)
    assert record["type"] == "log"
    assert record["level"] == "info"
    assert record["component"] == "server"
    assert record["event"] == "listening"
    assert record["fields"] == {"socket": "x.sock", "workers": 2}
    lines = (tmp_path / "events.log").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [record]


def test_event_log_level_filter(tmp_path):
    path = tmp_path / "events.log"
    log = EventLog(path=str(path), level="warn")
    log.emit("debug", "c", "dropped")
    log.emit("info", "c", "dropped-too")
    log.emit("warn", "c", "kept")
    log.emit("error", "c", "kept-too")
    log.close()
    events = [json.loads(line)["event"] for line in
              path.read_text().splitlines()]
    assert events == ["kept", "kept-too"]


def test_event_log_rejects_unknown_level(tmp_path):
    with pytest.raises(ValueError):
        EventLog(path=str(tmp_path / "x.log"), level="verbose")
    log = EventLog()
    with pytest.raises(ValueError):
        log.emit("fatal", "c", "e")


def test_event_log_fields_are_json_safe(tmp_path):
    log = EventLog(path=str(tmp_path / "events.log"), level="debug")
    record = log.emit("info", "c", "e", obj=object(), nested={"k": (1, 2)},
                      none=None)
    log.close()
    json.dumps(record)                        # must serialize as-is
    assert record["fields"]["nested"] == {"k": [1, 2]}
    assert record["fields"]["none"] is None
    assert isinstance(record["fields"]["obj"], str)


def test_event_log_size_rotation(tmp_path):
    path = tmp_path / "events.log"
    log = EventLog(path=str(path), level="debug", max_bytes=1024, backups=2)
    for index in range(200):
        log.emit("info", "component", "event", index=index,
                 padding="x" * 64)
    log.close()
    assert log.rotations >= 2
    assert path.exists()
    assert (tmp_path / "events.log.1").exists()
    assert (tmp_path / "events.log.2").exists()
    assert not (tmp_path / "events.log.3").exists()    # backups capped
    # Every surviving file is valid JSONL of schema'd records.
    for name in ("events.log", "events.log.1", "events.log.2"):
        for line in (tmp_path / name).read_text().splitlines():
            validate_log_record(json.loads(line))


def test_validate_log_record_rejects_malformed():
    good = EventLog().build("info", "c", "e")
    for corruption in (
            {**good, "type": "span"},
            {**good, "ts": "yesterday"},
            {**good, "level": "noisy"},
            {**good, "component": ""},
            {**good, "fields": []},
            "not a dict"):
        with pytest.raises(ValueError):
            validate_log_record(corruption)


# -- Prometheus export ----------------------------------------------------------------


def test_sanitize_metric_name():
    assert sanitize_metric_name("serve.queue_depth") == "serve_queue_depth"
    assert sanitize_metric_name("a-b c") == "a_b_c"
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_metric_name("ok_name:sub") == "ok_name:sub"


def test_prometheus_round_trip_live_registry():
    """Every metric in a live registry snapshot survives the text format."""
    registry = MetricsRegistry()
    registry.inc("serve.units_completed", 7)
    registry.inc("engine.cache-hits", 3)      # name needs sanitizing
    registry.set_gauge("serve.queue_depth", 12)
    registry.set_gauge("serve.load", 0.75)
    for value in (0.0002, 0.02, 0.02, 0.4, 7.0, 120.0):
        registry.observe("serve.unit_latency", value)
    snapshot = registry.snapshot()

    text = render_prometheus(snapshot)
    families = validate_prometheus_text(text)

    assert families["serve_units_completed"]["type"] == "counter"
    assert families["serve_units_completed"]["value"] == 7
    assert families["engine_cache_hits"]["value"] == 3
    assert families["serve_queue_depth"]["type"] == "gauge"
    assert families["serve_queue_depth"]["value"] == 12
    assert families["serve_load"]["value"] == 0.75

    histogram = families["serve_unit_latency"]
    assert histogram["type"] == "histogram"
    assert histogram["count"] == 6
    assert histogram["sum"] == pytest.approx(snapshot["histograms"]
                                             ["serve.unit_latency"]["sum"])
    buckets = histogram["buckets"]
    assert buckets[-1][0] == math.inf
    assert buckets[-1][1] == 6                # +Inf bucket is the total
    cumulative = [count for _le, count in buckets]
    assert cumulative == sorted(cumulative)   # monotone non-decreasing
    # The 120.0 observation lands only in +Inf (beyond the last bound).
    assert buckets[-2][1] == 5

    # Every family carries its # HELP and # TYPE lines.
    for name, family in families.items():
        assert f"# TYPE {name} {family['type']}" in text
        assert f"# HELP {name} " in text


def test_prometheus_rejects_corrupt_text():
    registry = MetricsRegistry()
    registry.observe("lat", 0.02)
    text = render_prometheus(registry.snapshot())
    validate_prometheus_text(text)
    with pytest.raises(ValueError):           # sample without a TYPE line
        validate_prometheus_text("orphan 1\n")
    with pytest.raises(ValueError):           # non-cumulative buckets
        validate_prometheus_text(
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n")
    with pytest.raises(ValueError):           # missing +Inf bucket
        validate_prometheus_text(
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\nh_sum 1\nh_count 1\n')
    with pytest.raises(ValueError):           # garbage sample line
        validate_prometheus_text("# HELP a x\n# TYPE a counter\na one\n")


def test_prometheus_name_collision_is_an_error():
    with pytest.raises(ValueError):
        render_prometheus({"counters": {"a.b": 1, "a_b": 2}})


def test_write_metrics_file_atomic(tmp_path):
    registry = MetricsRegistry()
    registry.inc("writes", 1)
    path = tmp_path / "metrics.prom"
    write_metrics_file(str(path), registry.snapshot())
    registry.inc("writes", 1)
    write_metrics_file(str(path), registry.snapshot())
    families = validate_prometheus_text(path.read_text())
    assert families["writes"]["value"] == 2
    assert not list(tmp_path.glob("*.tmp.*"))  # temp files always renamed


# -- the flight recorder --------------------------------------------------------------


def test_flight_recorder_ring_is_bounded():
    flight = FlightRecorder(event_capacity=4, span_capacity=3)
    log = EventLog()
    for index in range(10):
        flight.record_event(log.build("info", "c", f"e{index}"))
        flight.record_span(f"s{index}", 0.01)
    assert [e["event"] for e in flight.recent_events(99)] == \
        ["e6", "e7", "e8", "e9"]
    assert [s["name"] for s in flight.recent_spans(99)] == ["s7", "s8", "s9"]
    assert [e["event"] for e in flight.recent_events(2)] == ["e8", "e9"]


def test_flight_dump_schema_and_sequencing(tmp_path):
    flight = FlightRecorder()
    log = EventLog()
    flight.record_event(log.build("error", "pool", "worker-died", worker=3))
    flight.record_span("unit:job-1:0", 0.25, worker=3)
    first = flight.dump("pool.worker-died", str(tmp_path),
                        detail={"worker": 3},
                        metrics={"counters": {"serve.units_completed": 1}},
                        config={"incremental": True})
    second = flight.dump("SIGQUIT", str(tmp_path))
    assert os.path.basename(first) == "repro-flight-0001-pool.worker-died.json"
    assert os.path.basename(second) == "repro-flight-0002-SIGQUIT.json"
    assert flight.dumps_written == 2

    document = json.loads(open(first).read())
    validate_flight_record(document)
    assert document["reason"] == "pool.worker-died"
    assert document["detail"] == {"worker": 3}
    assert document["events"][0]["event"] == "worker-died"
    assert document["spans"][0]["name"] == "unit:job-1:0"
    assert document["metrics"]["counters"]["serve.units_completed"] == 1
    assert document["config"]["incremental"] is True


def test_validate_flight_record_rejects_malformed(tmp_path):
    flight = FlightRecorder()
    path = flight.dump("reason", str(tmp_path))
    good = json.loads(open(path).read())
    validate_flight_record(good)
    for corruption in (
            {**good, "type": "log"},
            {**good, "seq": 0},
            {**good, "reason": ""},
            {**good, "events": [{"bogus": True}]},
            {**good, "spans": [{"name": "x"}]},
            []):
        with pytest.raises(ValueError):
            validate_flight_record(corruption)


def test_ops_routes_all_levels_to_flight_ring(tmp_path):
    """The log filters by level; the flight ring deliberately does not."""
    ops = Ops(log=EventLog(path=str(tmp_path / "ops.log"), level="error"),
              flight_dir=str(tmp_path))
    ops.emit("debug", "pool", "task-started", task="t0")
    ops.emit("error", "pool", "worker-died", worker=1)
    ops.close()
    assert [e["event"] for e in ops.recent_events()] == \
        ["task-started", "worker-died"]
    logged = [json.loads(line)["event"] for line in
              (tmp_path / "ops.log").read_text().splitlines()]
    assert logged == ["worker-died"]          # level filter applied on disk


def test_ops_emit_dump_writes_flight_record(tmp_path):
    ops = Ops(flight_dir=str(tmp_path),
              metrics_fn=lambda: {"counters": {"c": 1}},
              config_fn=lambda: {"workers": 2})
    ops.emit("debug", "pool", "task-started", task="job-1:0")
    ops.emit("error", "pool", "worker-died", dump=True, worker=0)
    dumps = glob.glob(str(tmp_path / "repro-flight-*.json"))
    assert len(dumps) == 1
    document = json.loads(open(dumps[0]).read())
    validate_flight_record(document)
    assert document["reason"] == "pool.worker-died"
    assert document["metrics"] == {"counters": {"c": 1}}
    assert document["config"] == {"workers": 2}
    # The debug-level trail preceding the death is inside the dump.
    assert [e["event"] for e in document["events"]] == \
        ["task-started", "worker-died"]


# -- the slow-query recorder ----------------------------------------------------------


def test_slow_query_recorder_threshold_and_capacity():
    recorder = SlowQueryRecorder(threshold_ms=10.0, capacity=2)
    recorder.note("k1", True, 0.005, "builtin")      # 5ms: under threshold
    recorder.note("k2", False, 0.02, "builtin")
    recorder.note("k3", None, 0.5, "pysat")
    recorder.note("k4", True, 0.9, "builtin")        # over capacity
    assert [r["key"] for r in recorder.records] == ["k2", "k3"]
    assert recorder.records[0]["duration_ms"] == 20.0
    assert recorder.records[1]["verdict"] == "unknown"
    assert recorder.records[1]["backend"] == "pysat"
    assert recorder.dropped == 1


def test_note_query_is_a_noop_when_inactive():
    note_query("key", True, 10.0, "builtin")         # must not raise
    recorder = SlowQueryRecorder(threshold_ms=0.0)
    previous = activate_slow_queries(recorder)
    try:
        note_query("key", True, 0.001, "builtin")
    finally:
        restore_slow_queries(previous)
    note_query("key2", True, 10.0, "builtin")        # inactive again
    assert [r["key"] for r in recorder.records] == ["key"]


def test_check_work_unit_collects_slow_queries():
    config = CheckerConfig(slow_query_ms=0.0)        # every query is "slow"
    result = check_work_unit(WorkUnit(name="u.c", source=UNSTABLE), config)
    assert result.ok
    assert result.slow_queries
    for record in result.slow_queries:
        assert set(record) == {"key", "backend", "verdict", "duration_ms"}
        assert record["backend"] == "builtin"
        assert record["duration_ms"] >= 0.0
    # Out-of-band by construction: nothing leaked into meta / the record.
    assert "slow_queries" not in result.meta

    baseline = check_work_unit(WorkUnit(name="u.c", source=UNSTABLE),
                               CheckerConfig())
    assert baseline.slow_queries == []


# -- worker death produces a post-mortem ----------------------------------------------


def test_worker_kill_dumps_flight_record_with_event_trail(tmp_path,
                                                          monkeypatch):
    """Killing a warm worker mid-unit writes a schema-valid dump whose
    event trail covers the dying unit: spawn → task-started → worker-died
    with the unit in the orphan list (the ISSUE's 2am question)."""
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    ops = Ops(log=EventLog(path=str(tmp_path / "pool.log"), level="debug"),
              flight_dir=str(tmp_path))
    pool = WarmWorkerPool(workers=2, ops=ops)
    try:
        pool.submit("boom", WorkUnit(name="boom", source=UNSTABLE,
                                     meta={CRASH_META_KEY: True}))
        pool.submit("ok", WorkUnit(name="ok", source=UNSTABLE))
        events = pool.drain(timeout=120.0)
        assert sorted(e.task_id for e in events if e.kind == "done") == \
            ["boom", "ok"]
        assert pool.deaths == 1
    finally:
        pool.close(drain=False)

    dumps = glob.glob(str(tmp_path / "repro-flight-*.json"))
    assert len(dumps) == 1
    document = json.loads(open(dumps[0]).read())
    validate_flight_record(document)
    assert document["reason"] == "pool.worker-died"
    assert "boom" in document["detail"]["orphaned"]

    trail = [(e["event"], e["fields"]) for e in document["events"]]
    started = [fields for event, fields in trail if event == "task-started"]
    assert any(fields["task"] == "boom" for fields in started)
    died = [fields for event, fields in trail if event == "worker-died"]
    assert len(died) == 1 and "boom" in died[0]["orphaned"]
    # The dying worker's spawn is in the trail too.
    spawned = [fields for event, fields in trail
               if event == "worker-spawned"]
    assert any(fields["worker"] == died[0]["worker"] for fields in spawned)

    # The retry made it into the log after the dump was cut.
    logged = [json.loads(line) for line in
              (tmp_path / "pool.log").read_text().splitlines()]
    retried = [r for r in logged if r["event"] == "task-retried"]
    assert [r["fields"]["task"] for r in retried] == ["boom"]
    respawns = [r for r in logged if r["event"] == "worker-spawned"
                and r["fields"]["restarts"] > 0]
    assert len(respawns) == 1                 # replacement inherits the slot


# -- repro top ------------------------------------------------------------------------


def _sample_status():
    return {
        "type": "status", "draining": False, "queue_depth": 3,
        "in_flight": 2, "active_jobs": 1, "clients": 1, "workers": 2,
        "worker_deaths": 1, "uptime_units": 41, "cache_entries": 120,
        "workers_detail": [
            {"worker": 0, "pid": 100, "state": "busy", "units_done": 21,
             "restarts": 0},
            {"worker": 3, "pid": 104, "state": "idle", "units_done": 20,
             "restarts": 1},
        ],
        "recent_events": [
            {"type": "log", "ts": 1.0, "level": "error", "component": "pool",
             "event": "worker-died", "fields": {"worker": 1}},
        ],
        "metrics": {
            "counters": {"serve.units_completed": 41, "serve.queries": 50,
                         "serve.warm_hits": 30, "serve.units_retried": 1,
                         "serve.units_failed": 0, "serve.slow_queries": 2},
            "gauges": {"serve.queue_depth": 3},
            "histograms": {"serve.unit_latency": {
                "buckets": [0.01, 0.1, 1.0], "counts": [10, 25, 6, 0],
                "count": 41, "sum": 3.2, "min": 0.004, "max": 0.9}},
        },
    }


def test_render_dashboard_is_pure_and_complete():
    status = _sample_status()
    text = render_dashboard(status)
    assert render_dashboard(status) == text   # pure: same input, same frame
    assert "running" in text
    assert "3 queued" in text and "2 in-flight" in text
    assert "41 completed" in text
    assert "60.0%" in text                    # 30 warm hits / 50 queries
    assert "pid 100" in text and "busy" in text
    assert "1 restart(s)" in text
    assert "worker-died" in text
    assert any(ch in text for ch in "▁▂▃▄▅▆▇█")
    assert "mean 78.0ms" in text              # 3.2s / 41 units


def test_render_dashboard_handles_empty_daemon():
    text = render_dashboard({"type": "status", "metrics": {}})
    assert "running" in text
    assert "warm-hit rate n/a" in text


def test_top_once_json_against_live_daemon(tmp_path, capsys):
    from repro.__main__ import top_cli_main
    from repro.serve import ServeClient, ServeConfig, ServeServer

    socket_path = str(tmp_path / "serve.sock")
    server = ServeServer(ServeConfig(socket_path=socket_path, workers=1))
    server.start()
    try:
        with ServeClient(socket_path, name="filler") as client:
            client.check([("a.c", UNSTABLE)])
        assert top_cli_main(["--socket", socket_path, "--once",
                             "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["type"] == "status"
        assert status["uptime_units"] == 1
        assert status["workers_detail"][0]["units_done"] == 1
        assert top_cli_main(["--socket", socket_path, "--once"]) == 0
        assert "1 completed" in capsys.readouterr().out
    finally:
        server.close()


def test_top_reports_unreachable_daemon(tmp_path, capsys):
    from repro.__main__ import top_cli_main

    missing = str(tmp_path / "nowhere.sock")
    assert top_cli_main(["--socket", missing, "--once"]) == 1
    assert "cannot reach daemon" in capsys.readouterr().err
