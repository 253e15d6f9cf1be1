"""Tests for the always-on checking service (repro.serve, docs/SERVE.md).

Covers the wire protocol, the deterministic scheduler, the warm worker
pool's death-recovery contract, and the full daemon gauntlet: concurrent
clients with different priorities, quota/queue rejection, cancellation,
graceful drain with zero lost or duplicated records, verdict identity
with batch engine runs, and the ``serve`` / ``submit`` CLI round trip.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.checker import CheckerConfig
from repro.engine.pool import CRASH_META_KEY, TEST_HOOKS_ENV, WarmWorkerPool
from repro.engine.sink import verdict_view
from repro.engine.workunit import UnitResult, WorkUnit
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.scheduler import AdmissionError, JobScheduler
from repro.serve.client import ServeClient, ServeError, SubmitRejected
from repro.serve.server import ServeConfig, ServeServer

UNSTABLE = """
int write_check(char *buf, char *buf_end, unsigned int len) {
    if (buf + len >= buf_end) return -1;
    if (buf + len < buf) return -1;
    return 0;
}
"""

STABLE = """
int safe_div(int a, int b) {
    if (b == 0) return 0;
    return a / b;
}
"""


# -- protocol -------------------------------------------------------------------------


def test_message_framing_round_trip():
    message = {"op": "submit", "units": [], "priority": 3}
    framed = protocol.encode(message)
    assert framed.endswith(b"\n")
    assert protocol.decode(framed[:-1]) == message


def test_decode_rejects_garbage():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"not json")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2]")            # not an object


def test_unit_wire_round_trip():
    unit = WorkUnit(name="u", source="int f() { return 0; }",
                    filename="dir/u.c", meta={"tag": "fuzz", "seed": 7})
    rebuilt = protocol.unit_from_wire(protocol.unit_to_wire(unit))
    assert rebuilt.name == unit.name
    assert rebuilt.source == unit.source
    assert rebuilt.filename == unit.filename
    assert rebuilt.meta == unit.meta


def test_module_units_do_not_cross_the_wire():
    from repro.api import compile_source

    module = compile_source(STABLE)
    unit = WorkUnit(name="m", module=module)
    with pytest.raises(protocol.ProtocolError):
        protocol.unit_to_wire(unit)


def test_unit_from_wire_validates():
    with pytest.raises(protocol.ProtocolError):
        protocol.unit_from_wire({"source": "x"})         # no name
    with pytest.raises(protocol.ProtocolError):
        protocol.unit_from_wire({"name": "u"})           # no source
    with pytest.raises(protocol.ProtocolError):
        protocol.unit_from_wire({"name": "u", "source": "x", "meta": 3})


def test_checker_overrides_are_whitelisted():
    base = CheckerConfig()
    updated = protocol.checker_from_wire(
        base, {"max_propagations": 10, "inline": False})
    assert updated.max_propagations == 10 and updated.inline is False
    assert protocol.checker_from_wire(base, None) is base
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"backend": "pysat"})
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"no_such_field": 1})


def test_checker_overrides_are_type_checked():
    """Bad override *values* must be a submit-time rejection, not an opaque
    per-unit failure inside the workers."""
    base = CheckerConfig()
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"max_propagations": "x"})
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"max_propagations": {"nested": 1}})
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"incremental": "yes"})
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"incremental": 1})   # not a bool
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"max_propagations": 1.5})
    with pytest.raises(protocol.ProtocolError):
        protocol.checker_from_wire(base, {"witness_seed": True})


def _line_socket_pair():
    left, right = socket.socketpair()
    return left, protocol.LineSocket(right)


def test_receive_skips_blank_line_floods_without_recursing():
    """Thousands of consecutive blank lines must not blow the stack (the
    old implementation recursed once per blank line)."""
    sender, receiver = _line_socket_pair()
    sender.sendall(b"\n" * 5000 + protocol.encode({"op": "ping"}))
    assert receiver.receive() == {"op": "ping"}
    sender.close()
    assert receiver.receive() is None


def test_receive_caps_line_length(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
    sender, receiver = _line_socket_pair()
    sender.sendall(b"x" * 4096)               # no newline in sight
    with pytest.raises(protocol.ProtocolError):
        receiver.receive()
    # The connection is closed: the stream was unrecoverable.
    assert receiver.receive() is None
    sender.close()


def test_require_op_rejects_unknown_ops():
    assert protocol.require_op({"op": "ping"}) == "ping"
    with pytest.raises(protocol.ProtocolError):
        protocol.require_op({"op": "format-disk"})
    with pytest.raises(protocol.ProtocolError):
        protocol.require_op({})


# -- scheduler ------------------------------------------------------------------------


def _units(count, prefix="u"):
    return [WorkUnit(name=f"{prefix}{i}", source=STABLE)
            for i in range(count)]


def _result(name):
    from repro.core.report import BugReport

    return UnitResult(name=name, report=BugReport(module=name))


def test_scheduler_orders_by_priority_then_submission():
    sched = JobScheduler()
    low = sched.submit("c1", _units(1, "low"), CheckerConfig(), priority=0)
    high = sched.submit("c2", _units(1, "high"), CheckerConfig(), priority=5)
    tied = sched.submit("c3", _units(1, "tied"), CheckerConfig(), priority=5)
    order = []
    while True:
        picked = sched.next_unit(lambda _c: True)
        if picked is None:
            break
        order.append(picked[0].job_id)
    assert order == [high.job_id, tied.job_id, low.job_id]


def test_scheduler_dispatches_units_in_submission_order():
    sched = JobScheduler()
    job = sched.submit("c", _units(4), CheckerConfig())
    indices = [sched.next_unit(lambda _c: True)[1] for _ in range(4)]
    assert indices == [0, 1, 2, 3]
    assert job.pending_units == 0 and job.in_flight == 4


def test_scheduler_skips_backpressured_clients():
    sched = JobScheduler()
    fast = sched.submit("fast", _units(1, "f"), CheckerConfig(), priority=0)
    sched.submit("slow", _units(1, "s"), CheckerConfig(), priority=9)
    # The slow client outranks, but its outbox is full: fast's unit runs.
    picked = sched.next_unit(lambda client: client == "fast")
    assert picked[0].job_id == fast.job_id


def test_scheduler_admission_bounds():
    sched = JobScheduler(max_queued_units=3, client_quota=2)
    with pytest.raises(AdmissionError) as excinfo:
        sched.submit("c", [], CheckerConfig())
    assert excinfo.value.reason == "empty"
    with pytest.raises(AdmissionError) as excinfo:
        sched.submit("c", _units(3), CheckerConfig())
    assert excinfo.value.reason == "quota"   # quota (2) trips before queue (3)
    sched.submit("c", _units(2), CheckerConfig())
    with pytest.raises(AdmissionError) as excinfo:
        sched.submit("other", _units(2), CheckerConfig())
    assert excinfo.value.reason == "queue-full"


def test_scheduler_emits_results_in_submission_order():
    sched = JobScheduler()
    job = sched.submit("c", _units(3), CheckerConfig())
    for _ in range(3):
        sched.next_unit(lambda _c: True)
    # Completions arrive out of order; emission must not.
    assert sched.complete(job.job_id, 2, _result("u2")) == []
    assert sched.complete(job.job_id, 1, _result("u1")) == []
    ready = sched.complete(job.job_id, 0, _result("u0"))
    assert [index for index, _ in ready] == [0, 1, 2]
    assert job.finished
    assert sched.finish(job.job_id) is job
    assert sched.idle()


def test_scheduler_cancel_drops_queued_and_swallows_in_flight():
    sched = JobScheduler()
    job = sched.submit("c", _units(4), CheckerConfig())
    sched.next_unit(lambda _c: True)          # index 0 in flight
    dropped = sched.cancel(job.job_id)
    assert dropped == 3                       # 1..3 never dispatched
    assert sched.cancel(job.job_id) is None   # idempotent
    assert not job.finished                   # still owes the in-flight unit
    assert sched.complete(job.job_id, 0, _result("u0")) == []
    assert job.finished and job.dropped == 4
    assert sched.finish(job.job_id) is job


def test_scheduler_cancel_client_cancels_all_their_jobs():
    sched = JobScheduler()
    mine = sched.submit("me", _units(2), CheckerConfig())
    others = sched.submit("you", _units(2), CheckerConfig())
    cancelled = sched.cancel_client("me")
    assert cancelled == [mine.job_id]
    assert mine.cancelled and not others.cancelled


def test_scheduler_is_deterministic():
    def run():
        sched = JobScheduler()
        sched.submit("a", _units(2, "a"), CheckerConfig(), priority=1)
        sched.submit("b", _units(2, "b"), CheckerConfig(), priority=2)
        sched.submit("a", _units(1, "c"), CheckerConfig(), priority=2)
        order = []
        while True:
            picked = sched.next_unit(lambda _c: True)
            if picked is None:
                break
            order.append((picked[0].job_id, picked[1]))
        return order

    assert run() == run()


# -- warm worker pool -----------------------------------------------------------------


def test_pool_checks_units_and_keeps_cache_warm():
    from repro.engine.cache import SolverQueryCache

    cache = SolverQueryCache()
    pool = WarmWorkerPool(workers=2, cache=cache)
    try:
        pool.submit("t0", WorkUnit(name="a", source=UNSTABLE))
        pool.submit("t1", WorkUnit(name="b", source=UNSTABLE))
        events = pool.drain(timeout=120.0)
        done = {e.task_id: e for e in events if e.kind == "done"}
        assert set(done) == {"t0", "t1"}
        assert all(e.result.error is None for e in done.values())
        assert len(done["t0"].result.report.bugs) >= 2
        # The workers drained their discoveries into the parent cache.
        assert len(cache) > 0
    finally:
        pool.close(drain=False)


def test_pool_survives_worker_death_mid_unit(monkeypatch):
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    pool = WarmWorkerPool(workers=2)
    try:
        pool.submit("ok0", WorkUnit(name="ok0", source=UNSTABLE))
        pool.submit("boom", WorkUnit(name="boom", source=UNSTABLE,
                                     meta={CRASH_META_KEY: True}))
        pool.submit("ok1", WorkUnit(name="ok1", source=UNSTABLE))
        events = pool.drain(timeout=120.0)
        kinds = {}
        for event in events:
            kinds.setdefault(event.kind, []).append(event.task_id)
        # The crashed unit was retried (crash lever stripped) and completed;
        # every unit resolved exactly once; the pool is back at strength.
        assert sorted(kinds["done"]) == ["boom", "ok0", "ok1"]
        assert kinds.get("retried") == ["boom"]
        assert "failed" not in kinds
        assert pool.deaths == 1
        assert len(pool.worker_pids) == 2
        assert pool.outstanding == 0
    finally:
        pool.close(drain=False)


def test_pool_reports_failed_after_retries_exhausted(monkeypatch):
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    pool = WarmWorkerPool(workers=1, max_retries=0)
    try:
        pool.submit("boom", WorkUnit(name="boom", source=STABLE,
                                     meta={CRASH_META_KEY: True}))
        events = pool.drain(timeout=60.0)
        failed = [e for e in events if e.kind == "failed"]
        assert len(failed) == 1 and failed[0].task_id == "boom"
        assert "died" in failed[0].error
        assert pool.outstanding == 0          # no hang: the task resolved
    finally:
        pool.close(drain=False)


def test_pool_charges_only_the_running_task_for_a_worker_death(monkeypatch):
    """A task queued behind a crashing unit never started: it moves to the
    replacement worker without being charged a retry."""
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    pool = WarmWorkerPool(workers=1, max_retries=0)
    try:
        pool.submit("boom", WorkUnit(name="boom", source=STABLE,
                                     meta={CRASH_META_KEY: True}))
        pool.submit("bystander", WorkUnit(name="bystander", source=STABLE))
        events = pool.drain(timeout=120.0)
        assert sorted((e.kind, e.task_id) for e in events) == \
            [("done", "bystander"), ("failed", "boom")]
        failed = next(e for e in events if e.kind == "failed")
        assert failed.result.name == "boom"
        assert failed.result.error == failed.error
        done = next(e for e in events if e.kind == "done")
        assert done.result.error is None
        assert pool.deaths == 1
        assert pool.outstanding == 0
    finally:
        pool.close(drain=False)


def test_pool_workers_ignore_sigint():
    """Ctrl-C reaches every process in the foreground group; a busy worker
    must neither turn it into an error record nor die of it."""
    pool = WarmWorkerPool(workers=1)
    try:
        for index in range(4):
            pool.submit(f"t{index}", WorkUnit(name=f"t{index}",
                                              source=UNSTABLE))
        events = []
        deadline = time.monotonic() + 120.0
        while not events and time.monotonic() < deadline:
            events.extend(e for e in pool.collect() if e.kind == "done")
        os.kill(pool.worker_pids[0], signal.SIGINT)
        events.extend(pool.drain(timeout=120.0))
        assert sorted(e.task_id for e in events) == ["t0", "t1", "t2", "t3"]
        assert all(e.kind == "done" and e.result.error is None
                   for e in events)
        assert pool.deaths == 0
    finally:
        pool.close(drain=False)


def test_pool_rejects_duplicate_task_ids():
    pool = WarmWorkerPool(workers=1)
    try:
        pool.submit("t", WorkUnit(name="a", source=STABLE))
        with pytest.raises(ValueError):
            pool.submit("t", WorkUnit(name="b", source=STABLE))
    finally:
        pool.close(drain=False)


def test_pool_completed_history_is_bounded():
    """The duplicate-detection set must not grow one entry per unit ever
    processed — the daemon runs for months."""
    pool = WarmWorkerPool(workers=1, completed_history=2)
    try:
        for index in range(4):
            pool.submit(f"t{index}", WorkUnit(name=f"t{index}", source=STABLE))
            events = pool.drain(timeout=120.0)
            assert any(e.kind == "done" and e.task_id == f"t{index}"
                       for e in events)
        assert len(pool._completed) <= 2
        assert len(pool._completed_order) <= 2
        # Recent ids are still rejected as duplicates.
        with pytest.raises(ValueError):
            pool.submit("t3", WorkUnit(name="again", source=STABLE))
    finally:
        pool.close(drain=False)


# -- the daemon gauntlet --------------------------------------------------------------


@pytest.fixture
def serve_socket(tmp_path):
    return str(tmp_path / "serve.sock")


def _start_server(socket_path, **overrides):
    overrides.setdefault("workers", 2)
    config = ServeConfig(socket_path=socket_path, **overrides)
    server = ServeServer(config)
    server.start()
    return server


def test_server_leaves_the_callers_config_alone(serve_socket, tmp_path):
    checker = CheckerConfig()
    config = ServeConfig(socket_path=serve_socket, checker=checker,
                         trace_path=str(tmp_path / "trace.json"),
                         slow_query_ms=5.0)
    server = ServeServer(config)                # built, never started
    assert server.config.checker.trace
    assert server.config.checker.slow_query_ms == 5.0
    assert config.checker is checker
    assert checker.trace is False and checker.slow_query_ms is None


def test_served_records_match_batch_engine(serve_socket, tmp_path):
    """A served job's stream is the batch engine's stream, byte for byte
    (timing normalized via ``verdict_view``).  One warm worker vs. the
    sequential engine: cache-hit counters are part of the record, so the
    comparison needs equivalent pipelines."""
    from repro.engine.engine import CheckEngine, EngineConfig

    corpus = [("un0.c", UNSTABLE), ("st0.c", STABLE), ("un1.c", UNSTABLE)]
    batch_path = tmp_path / "batch.jsonl"
    CheckEngine(EngineConfig(workers=0, results_path=str(batch_path),
                             checker=CheckerConfig())).check_corpus(corpus)
    batch_units = [json.loads(line)
                   for line in batch_path.read_text().splitlines()
                   if json.loads(line)["type"] == "unit"]

    server = _start_server(serve_socket, workers=1)
    try:
        with ServeClient(serve_socket) as client:
            records = client.check(corpus)
        served_units = [r for r in records if r["type"] == "unit"]
        assert records[-1]["type"] == "run"
        assert len(served_units) == len(batch_units)
        for served, batch in zip(served_units, batch_units):
            assert json.dumps(verdict_view(served), sort_keys=True) == \
                json.dumps(verdict_view(batch), sort_keys=True)
    finally:
        server.close()


def test_concurrent_clients_with_priorities(serve_socket):
    server = _start_server(serve_socket)
    results = {}
    errors = []

    def run_client(name, priority, count):
        try:
            with ServeClient(serve_socket, name=name) as client:
                corpus = [(f"{name}-{i}.c", STABLE) for i in range(count)]
                results[name] = client.check(corpus, priority=priority)
        except Exception as exc:              # surface in the main thread
            errors.append((name, exc))

    try:
        threads = [threading.Thread(target=run_client, args=(name, prio, 3))
                   for name, prio in (("bulk", 0), ("urgent", 9))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for name in ("bulk", "urgent"):
            units = [r for r in results[name] if r["type"] == "unit"]
            # Each client got exactly its own units, in submission order.
            assert [u["unit"] for u in units] == \
                [f"{name}-{i}.c" for i in range(3)]
            assert results[name][-1]["type"] == "run"
    finally:
        server.close()


def test_quota_and_queue_rejection(serve_socket):
    server = _start_server(serve_socket, client_quota=2, max_queued_units=8)
    try:
        with ServeClient(serve_socket) as client:
            with pytest.raises(SubmitRejected) as excinfo:
                client.submit([(f"u{i}.c", STABLE) for i in range(3)])
            assert excinfo.value.reason == "quota"
            # A conforming job still goes through afterwards.
            records = client.check([("ok.c", STABLE)])
            assert records[-1]["type"] == "run"
    finally:
        server.close()


def test_cancellation_mid_job(serve_socket):
    server = _start_server(serve_socket)
    try:
        with ServeClient(serve_socket) as client:
            corpus = [(f"u{i}.c", UNSTABLE) for i in range(12)]
            job = client.submit(corpus)
            dropped = job.cancel()
            assert dropped > 0
            records = job.wait(timeout=120.0)
            assert job.status == "cancelled"
            # The stream ends with the job's partial run summary.
            assert records[-1]["type"] == "run"
            assert records[-1]["cancelled"] is True
            assert records[-1]["dropped"] >= dropped
            # The daemon keeps serving after a cancellation.
            assert client.check([("after.c", STABLE)])[-1]["type"] == "run"
    finally:
        server.close()


def test_drain_completes_accepted_work_exactly_once(serve_socket):
    """The graceful-drain contract: every accepted unit is emitted exactly
    once, then the daemon stops; post-drain submissions are rejected."""
    server = _start_server(serve_socket)
    corpus = [(f"u{i}.c", STABLE) for i in range(6)]
    with ServeClient(serve_socket) as client:
        job = client.submit(corpus)
        client.drain()
        with pytest.raises(SubmitRejected) as excinfo:
            client.submit([("late.c", STABLE)])
        assert excinfo.value.reason == "draining"
        records = job.wait(timeout=120.0)
    names = [r["unit"] for r in records if r["type"] == "unit"]
    assert names == [name for name, _ in corpus]      # no loss, no dups
    assert records[-1]["type"] == "run"
    assert records[-1]["units"] == len(corpus)
    assert server.serve_forever(timeout=60.0)         # daemon stopped itself
    assert not os.path.exists(serve_socket)


def test_worker_death_through_the_daemon(serve_socket, monkeypatch):
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    server = _start_server(serve_socket)
    try:
        with ServeClient(serve_socket) as client:
            units = [WorkUnit(name="ok0.c", source=UNSTABLE),
                     WorkUnit(name="boom.c", source=UNSTABLE,
                              meta={CRASH_META_KEY: True}),
                     WorkUnit(name="ok1.c", source=UNSTABLE)]
            records = client.check(units, timeout=120.0)
            unit_records = [r for r in records if r["type"] == "unit"]
            assert [u["unit"] for u in unit_records] == \
                ["ok0.c", "boom.c", "ok1.c"]
            assert all(u["error"] is None for u in unit_records)
            status = client.status()
            assert status["worker_deaths"] == 1
            assert status["metrics"]["counters"]["serve.units_retried"] == 1
            assert len(status["worker_pids"]) == 2    # back at strength
    finally:
        server.close()


def test_warm_cache_spans_jobs_and_clients(serve_socket, tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    server = _start_server(serve_socket, cache_path=str(cache_path))
    try:
        with ServeClient(serve_socket) as client:
            client.check([("cold.c", UNSTABLE)])
        with ServeClient(serve_socket) as client:   # a different connection
            records = client.check([("warm.c", UNSTABLE)])
            run = records[-1]
            # Alpha-equivalent queries answer from the resident cache.
            assert run["solver_queries"] == 0
            assert run["cache_hits"] > 0
            status = client.status()
            assert status["metrics"]["counters"]["serve.warm_hits"] > 0
    finally:
        server.close()
    assert cache_path.exists()                      # flushed on drain


def test_results_dir_mirrors_the_socket_stream(serve_socket, tmp_path):
    results_dir = tmp_path / "results"
    server = _start_server(serve_socket, results_dir=str(results_dir))
    try:
        with ServeClient(serve_socket) as client:
            job = client.submit([("a.c", UNSTABLE), ("b.c", STABLE)])
            streamed = job.wait(timeout=120.0)
            job_id = job.job_id
    finally:
        server.close()
    on_disk = [json.loads(line) for line in
               (results_dir / f"{job_id}.jsonl").read_text().splitlines()]
    assert on_disk == streamed


def test_status_and_ping(serve_socket):
    server = _start_server(serve_socket)
    try:
        with ServeClient(serve_socket, name="status-probe") as client:
            assert client.ping()
            status = client.status()
            assert status["proto"] == protocol.PROTOCOL_VERSION
            assert status["workers"] == 2
            assert status["clients"] == 1
            assert status["queue_depth"] == 0
            assert "serve.queue_depth" in status["metrics"]["gauges"]
    finally:
        server.close()


def test_job_done_event_precedes_the_job_done_message(serve_socket,
                                                       monkeypatch):
    """The ``job-done`` ops event is in the recent-event tail before the
    client is sent ``job-done``, so a status request right after the job
    finishes always finds it."""
    from repro.serve.server import _ClientConn

    server = _start_server(serve_socket, workers=1)
    seen = []
    enqueue = _ClientConn.enqueue

    def probing_enqueue(self, message, timeout=30.0):
        if message.get("type") == "job-done":
            seen.append(any(event["event"] == "job-done"
                            and event["fields"]["job"] == message["job"]
                            for event in server.ops.recent_events(99)))
        enqueue(self, message, timeout)

    monkeypatch.setattr(_ClientConn, "enqueue", probing_enqueue)
    try:
        with ServeClient(serve_socket, name="race-probe") as client:
            client.check([("a.c", STABLE)])
            client.check([("b.c", STABLE)])
            events = client.status()["recent_events"]
            assert any(event["event"] == "job-done" for event in events)
        assert seen == [True, True]
    finally:
        server.close()


def test_status_reports_worker_detail_and_uptime(serve_socket):
    server = _start_server(serve_socket, workers=2)
    try:
        with ServeClient(serve_socket, name="detail-probe") as client:
            client.check([("a.c", STABLE), ("b.c", STABLE), ("c.c", STABLE)])
            status = client.status()
            assert status["uptime_units"] == 3
            detail = status["workers_detail"]
            assert len(detail) == 2
            assert {worker["pid"] for worker in detail} == \
                set(status["worker_pids"])
            assert sum(worker["units_done"] for worker in detail) == 3
            assert all(worker["restarts"] == 0 for worker in detail)
            assert all(worker["state"] in ("idle", "busy")
                       for worker in detail)
            # The snapshot is taken atomically under the scheduler lock: the
            # direct fields and the serve.* gauges describe one instant.
            gauges = status["metrics"]["gauges"]
            assert gauges["serve.queue_depth"] == status["queue_depth"]
            assert gauges["serve.in_flight"] == status["in_flight"]
            assert gauges["serve.active_jobs"] == status["active_jobs"]
    finally:
        server.close()


def test_metrics_op_serves_prometheus_text(serve_socket):
    from repro.obs.promexport import validate_prometheus_text

    server = _start_server(serve_socket, workers=1)
    try:
        with ServeClient(serve_socket, name="scraper") as client:
            client.check([("a.c", UNSTABLE)])
            reply = client.metrics()
            families = validate_prometheus_text(reply["text"])
            assert families["serve_units_completed"]["value"] == 1
            assert families["serve_unit_latency"]["type"] == "histogram"
            assert reply["snapshot"]["counters"]["serve.units_completed"] == 1
    finally:
        server.close()


def test_connecting_to_a_dead_socket_fails_cleanly(tmp_path):
    with pytest.raises(ServeError):
        ServeClient(str(tmp_path / "nobody-home.sock"))


def test_records_racing_the_accept_reply_are_not_lost(tmp_path):
    """Demux regression: a warm-cache job can complete so fast that its
    ``result`` / ``job-done`` messages sit in the same socket read as the
    ``accepted`` reply.  The client's reader must register the job handle
    before touching the next message, or the stream is silently dropped and
    ``records()`` hangs."""
    sock_path = str(tmp_path / "fake.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(sock_path)
    listener.listen(1)

    def fake_server():
        conn, _addr = listener.accept()
        line = protocol.LineSocket(conn)
        while True:
            message = line.receive()
            if message is None:
                break
            if message.get("op") == "hello":
                line.send({"type": "welcome",
                           "proto": protocol.PROTOCOL_VERSION,
                           "client_id": "client-1", "workers": 1})
            elif message.get("op") == "submit":
                # The whole job, one write: accepted + records + done hit
                # the client reader back to back.
                conn.sendall(
                    protocol.encode({"type": "accepted", "job": "job-1",
                                     "units": 1, "priority": 0})
                    + protocol.encode({"type": "result", "job": "job-1",
                                       "record": {"type": "unit",
                                                  "unit": "a.c"}})
                    + protocol.encode({"type": "result", "job": "job-1",
                                       "record": {"type": "run"}})
                    + protocol.encode({"type": "job-done", "job": "job-1",
                                       "status": "ok", "units": 1}))
        conn.close()

    server_thread = threading.Thread(target=fake_server, daemon=True)
    server_thread.start()
    try:
        with ServeClient(sock_path) as client:
            job = client.submit([("a.c", STABLE)])
            records = job.wait(timeout=10.0)
        assert [r["type"] for r in records] == ["unit", "run"]
        assert job.status == "ok"
    finally:
        listener.close()
        server_thread.join(timeout=10)


def test_drain_reaps_wedged_clients(serve_socket, monkeypatch):
    """A client that stops reading while it still has undispatched units
    must not hold a drain open forever: after ``DRAIN_STALL_TIMEOUT`` its
    jobs are cancelled and the daemon finishes draining."""
    monkeypatch.setattr(server_module, "OUTBOX_HIGH_WATER", 2)
    monkeypatch.setattr(server_module, "DRAIN_STALL_TIMEOUT", 1.0)
    server = _start_server(serve_socket, workers=1)
    # Raw socket client so the test controls reads exactly: ~1 MiB of meta
    # per record overwhelms the kernel socket buffers, wedging the server's
    # writer thread and pinning the outbox at high-water.
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.connect(serve_socket)
    try:
        line = protocol.LineSocket(conn)
        units = [WorkUnit(name=f"u{i}.c", source=STABLE,
                          meta={"pad": "x" * (1 << 20)}) for i in range(8)]
        line.send(protocol.submit_message(units))
        accepted = line.receive()
        assert accepted["type"] == "accepted"
        # Stop reading entirely; give the pool a moment to produce output.
        time.sleep(0.5)
        server.request_drain(reason="test")
        assert server.serve_forever(timeout=60.0), \
            "drain wedged on a non-reading client"
        # The drain completed *because* the wedged client was reaped.
        counters = server.metrics.snapshot()["counters"]
        assert counters.get("serve.clients_reaped", 0) == 1
    finally:
        conn.close()


def test_job_trace_grafts_under_server_root(serve_socket, tmp_path):
    trace_path = tmp_path / "serve-trace.json"
    server = _start_server(serve_socket, trace_path=str(trace_path))
    try:
        with ServeClient(serve_socket) as client:
            client.check([("traced.c", UNSTABLE)])
    finally:
        server.close()
    from repro.obs.chrometrace import validate_chrome_trace

    document = json.loads(trace_path.read_text(encoding="utf-8"))
    validate_chrome_trace(document)
    names = [event["name"] for event in document["traceEvents"]]
    assert "serve" in names
    assert any(name.startswith("job:") for name in names)
    assert any(name.startswith("unit:") for name in names)


# -- the serve / submit CLI (the CI serve-smoke gauntlet) -----------------------------


def _repo_env():
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return env


def test_serve_cli_smoke(tmp_path):
    """Daemon CLI end to end: start, serve two clients, drain on SIGTERM,
    leak no processes."""
    sock = str(tmp_path / "cli.sock")
    env = _repo_env()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        banner = daemon.stdout.readline()
        assert "serve: listening" in banner
        worker_pids = [int(token) for token in
                       banner.rsplit(":", 1)[1].strip(" )\n").split()]
        assert len(worker_pids) == 2

        source = tmp_path / "unit.c"
        source.write_text(UNSTABLE, encoding="utf-8")
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--socket", sock,
             str(source)],
            capture_output=True, text=True, env=env, timeout=120)
        assert submit.returncode == 1         # diagnostics found
        records = [json.loads(line) for line in submit.stdout.splitlines()]
        assert [r["type"] for r in records] == ["unit", "run"]

        stdin_run = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--socket", sock,
             "--stdin"],
            input=STABLE, capture_output=True, text=True, env=env,
            timeout=120)
        assert stdin_run.returncode == 0

        status = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--socket", sock,
             "--status"],
            capture_output=True, text=True, env=env, timeout=60)
        assert json.loads(status.stdout)["workers"] == 2

        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0
        assert "drained" in daemon.stdout.read()
        deadline = time.monotonic() + 10
        leaked = worker_pids
        while leaked and time.monotonic() < deadline:
            leaked = [pid for pid in worker_pids if _alive(pid)]
            time.sleep(0.1)
        assert not leaked, f"leaked worker processes: {leaked}"
        assert not os.path.exists(sock)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def test_submit_cli_without_daemon_exits_2(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "submit", "--socket",
         str(tmp_path / "absent.sock"), "--stdin"],
        input=STABLE, capture_output=True, text=True, env=_repo_env(),
        timeout=60)
    assert result.returncode == 2
    assert "cannot connect" in result.stderr
