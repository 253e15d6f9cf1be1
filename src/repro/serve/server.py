"""The always-on checking daemon (``python -m repro serve``).

:class:`ServeServer` turns the engine stack into resident infrastructure:
it listens on a local stream socket for line-delimited JSON jobs
(:mod:`repro.serve.protocol`), schedules their units deterministically
across clients (:mod:`repro.serve.scheduler`), runs them on a pool of warm
worker processes whose solver-query caches persist across jobs
(:mod:`repro.engine.pool`), and streams per-unit results back to each
client — engine-schema records, in unit-submission order, one stream per
job — with scheduler-level backpressure for slow consumers.

Layout: one thread accepts connections; each client gets a reader thread
(ops) and a writer thread (its bounded outbox); one dispatcher thread moves
units from the scheduler into the pool; one collector thread routes
finished units back to jobs, sinks, and outboxes.  All shared state is
guarded by one lock; outbox writes happen outside it so a slow client can
never wedge the server (it just stops being scheduled until it drains).

Graceful drain (``SIGTERM``, the ``drain`` op, or
:meth:`ServeServer.request_drain`): new submissions are rejected, every
accepted unit finishes, per-job sinks and the shared solver-query cache are
flushed, workers exit via sentinels, and ``serve_forever`` returns — the
CLI then exits 0 (or re-execs on ``SIGHUP``).  See docs/SERVE.md.
"""

from __future__ import annotations

import os
import queue as queue_module
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.checker import CheckerConfig
from repro.engine.cache import SolverQueryCache
from repro.engine.engine import aggregate_results
from repro.engine.sink import JsonlResultSink, report_to_dict
from repro.engine.workunit import UnitResult
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry, config_snapshot
from repro.obs.ops import EventLog, Ops
from repro.obs.promexport import render_prometheus, write_metrics_file
from repro.obs.trace import Span, graft
from repro.serve import protocol
from repro.engine.pool import PoolEvent, WarmWorkerPool
from repro.serve.scheduler import AdmissionError, Job, JobScheduler


@dataclass
class ServeConfig:
    """Configuration of one daemon instance (see docs/SERVE.md)."""

    #: Unix-domain socket path the daemon listens on.
    socket_path: str = "repro-serve.sock"
    #: Warm worker processes held resident across jobs.
    workers: int = 2
    #: Default checker configuration; jobs may override whitelisted fields.
    checker: CheckerConfig = field(default_factory=CheckerConfig)
    #: JSONL file the shared solver-query cache is warmed from on start and
    #: atomically flushed to on drain (None = in-memory only).
    cache_path: Optional[str] = None
    #: Maximum in-memory cache entries.
    cache_capacity: int = 100_000
    #: Directory receiving one ``<job>.jsonl`` result stream per job
    #: (None = results travel only over the socket).
    results_dir: Optional[str] = None
    #: Global bound on units admitted but not yet dispatched.
    max_queued_units: int = 4096
    #: Per-client bound on outstanding (accepted, unemitted) units.
    client_quota: int = 1024
    #: Per-client outbox level above which the scheduler stops dispatching
    #: that client's units (the backpressure knob).
    outbox_high_water: int = 64
    #: During drain, a client whose outbox stays at the high-water mark this
    #: many seconds (it stopped reading but still holds undispatched units)
    #: has its jobs cancelled and its connection cut, so a wedged consumer
    #: cannot hold the drain open forever.
    drain_stall_timeout: float = 10.0
    #: Cumulative budget multipliers for retrying timed-out functions.
    escalation_factors: Tuple[float, ...] = (4.0, 16.0)
    #: Chrome trace-event JSON written on drain (implies tracing).
    trace_path: Optional[str] = None
    #: Structured JSONL event log (None = events feed only the flight
    #: recorder's in-memory ring).  See docs/OBSERVABILITY.md.
    log_path: Optional[str] = None
    #: Minimum level written to the event log (the flight ring keeps all).
    log_level: str = "info"
    #: Event-log size-rotation threshold in bytes.
    log_max_bytes: int = 10_000_000
    #: Prometheus text-format snapshot rewritten atomically every
    #: ``metrics_interval`` seconds for an external scraper (None = the
    #: ``metrics`` protocol op is the only exporter).
    metrics_path: Optional[str] = None
    #: Seconds between ``metrics_path`` rewrites.
    metrics_interval: float = 2.0
    #: Log solver queries slower than this many milliseconds as
    #: ``slow-query`` events (None = off).
    slow_query_ms: Optional[float] = None
    #: Directory receiving flight-recorder post-mortem dumps (default:
    #: next to the event log, else next to the socket).
    flight_dir: Optional[str] = None


class _ClientConn:
    """One connected client: its socket, outbox, and writer thread."""

    def __init__(self, client_id: str, line_socket: protocol.LineSocket,
                 outbox_capacity: int) -> None:
        self.client_id = client_id
        self.socket = line_socket
        self.name = client_id
        self.outbox: "queue_module.Queue" = queue_module.Queue(
            maxsize=outbox_capacity)
        self.writer = threading.Thread(target=self._write_loop, daemon=True,
                                       name=f"serve-writer-{client_id}")
        self.closed = False
        self.stalled_since: Optional[float] = None
        self.writer.start()

    def _write_loop(self) -> None:
        while True:
            message = self.outbox.get()
            if message is None:
                break
            try:
                self.socket.send(message)
            except OSError:
                break
        self.socket.close()

    def enqueue(self, message: Dict[str, object],
                timeout: float = 30.0) -> None:
        if not self.closed:
            try:
                self.outbox.put(message, timeout=timeout)
            except queue_module.Full:
                pass                          # client wedged; reader will reap

    def shutdown(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.outbox.put_nowait(None)
            except queue_module.Full:
                # Writer wedged on a full outbox: closing the socket errors
                # out its blocked sendall, which makes it exit without the
                # sentinel.
                self.socket.close()


class ServeServer:
    """Long-running checking service over a local socket."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        if self.config.trace_path and not self.config.checker.trace:
            import dataclasses

            self.config.checker = dataclasses.replace(self.config.checker,
                                                      trace=True)
        if self.config.slow_query_ms is not None \
                and self.config.checker.slow_query_ms is None:
            import dataclasses

            self.config.checker = dataclasses.replace(
                self.config.checker, slow_query_ms=self.config.slow_query_ms)
        self.cache = SolverQueryCache(capacity=self.config.cache_capacity,
                                      path=self.config.cache_path)
        self.metrics = MetricsRegistry()
        flight_dir = self.config.flight_dir \
            or os.path.dirname(self.config.log_path or "") \
            or os.path.dirname(self.config.socket_path) or "."
        self.ops = Ops(
            log=EventLog(path=self.config.log_path,
                         level=self.config.log_level,
                         max_bytes=self.config.log_max_bytes),
            flight=FlightRecorder(),
            flight_dir=flight_dir,
            metrics_fn=lambda: self.metrics.snapshot(),
            config_fn=lambda: config_snapshot(self.config.checker))
        self.trace_root: Optional[Span] = \
            Span("serve") if self.config.checker.trace else None
        self._trace_offset = 0.0
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._scheduler = JobScheduler(
            max_queued_units=self.config.max_queued_units,
            client_quota=self.config.client_quota)
        self._pool: Optional[WarmWorkerPool] = None
        self._clients: Dict[str, _ClientConn] = {}
        self._client_counter = 0
        self._sinks: Dict[str, JsonlResultSink] = {}
        self._results: Dict[str, List[UnitResult]] = {}
        self._dispatch_times: Dict[str, float] = {}
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._collector_thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self.draining = False
        self.reload_requested = False
        self._stopped = threading.Event()
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket, spawn the pool and service threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._pool = WarmWorkerPool(
            workers=self.config.workers, checker=self.config.checker,
            cache=self.cache, cache_capacity=self.config.cache_capacity,
            escalation_factors=self.config.escalation_factors, ops=self.ops)
        path = self.config.socket_path
        if os.path.exists(path):
            os.unlink(path)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(16)
        self.metrics.set_gauge("serve.workers", self.config.workers)
        self._update_queue_gauges()
        self.ops.emit("info", "server", "listening", socket=path,
                      workers=self.config.workers, pid=os.getpid(),
                      cache_entries=len(self.cache))
        for target, name in ((self._accept_loop, "serve-accept"),
                             (self._dispatch_loop, "serve-dispatch"),
                             (self._collect_loop, "serve-collect")):
            thread = threading.Thread(target=target, daemon=True, name=name)
            thread.start()
            self._threads.append(thread)
            if name == "serve-collect":
                self._collector_thread = thread
        if self.config.metrics_path:
            thread = threading.Thread(target=self._metrics_loop, daemon=True,
                                      name="serve-metrics")
            thread.start()
            self._threads.append(thread)

    def serve_forever(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon drains and stops; True if it did."""
        return self._stopped.wait(timeout)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped.is_set()

    @property
    def worker_pids(self) -> List[int]:
        return list(self._pool.worker_pids) if self._pool is not None else []

    def request_drain(self, reason: str = "requested",
                      reload: bool = False) -> None:
        """Stop accepting jobs; finish everything accepted; then shut down."""
        with self._wakeup:
            if reload:
                self.reload_requested = True
            if self.draining:
                return
            self.draining = True
            self._wakeup.notify_all()
        self.ops.emit("info", "server", "draining", reason=reason,
                      reload=reload)

    def dump_flight(self, reason: str = "requested") -> str:
        """Write a flight-recorder post-mortem now; returns its path.

        This is the ``SIGQUIT`` handler's entry point — a live snapshot of
        the daemon without stopping it.
        """
        return self.ops.dump(reason)

    def _metrics_loop(self) -> None:
        """Periodically rewrite the Prometheus snapshot file (atomically)."""
        interval = max(0.05, float(self.config.metrics_interval))
        while not self._stopped.wait(interval):
            try:
                write_metrics_file(self.config.metrics_path,
                                   self.metrics.snapshot())
            except OSError:
                pass                          # disk hiccup; retry next tick

    def close(self) -> None:
        """Hard stop for tests/embedders: drain with whatever is queued."""
        self.request_drain(reason="close")
        if not self.serve_forever(timeout=60.0):
            raise RuntimeError("serve: drain did not complete in time")

    # -- accept / per-client reader ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return                        # listener closed during drain
            with self._lock:
                self._client_counter += 1
                client_id = f"client-{self._client_counter}"
                client = _ClientConn(
                    client_id, protocol.LineSocket(conn),
                    outbox_capacity=self.config.outbox_high_water
                    + self.config.workers * 2 + 8)
                self._clients[client_id] = client
                self.metrics.set_gauge("serve.clients", len(self._clients))
            self.ops.emit("info", "server", "client-connected",
                          client=client_id)
            thread = threading.Thread(target=self._read_loop,
                                      args=(client,), daemon=True,
                                      name=f"serve-reader-{client_id}")
            thread.start()

    def _read_loop(self, client: _ClientConn) -> None:
        # The try/finally guarantees _disconnect runs no matter what kills
        # the loop — without it, an unexpected exception would leak the
        # client's jobs and quota until shutdown.
        try:
            while True:
                try:
                    message = client.socket.receive()
                except protocol.ProtocolError as exc:
                    # Undecodable line: report and keep reading.  An
                    # oversized line closed the socket inside receive(), so
                    # the next iteration returns None and disconnects.
                    client.enqueue(protocol.error_message("protocol",
                                                          str(exc)))
                    continue
                if message is None:
                    break
                try:
                    self._handle_op(client, message)
                except protocol.ProtocolError as exc:
                    client.enqueue(protocol.error_message("protocol",
                                                          str(exc)))
        finally:
            self._disconnect(client)

    def _disconnect(self, client: _ClientConn) -> None:
        finished: List[Job] = []
        cancelled: List[str] = []
        with self._wakeup:
            self._clients.pop(client.client_id, None)
            self.metrics.set_gauge("serve.clients", len(self._clients))
            for job_id in self._scheduler.cancel_client(client.client_id):
                self.metrics.inc("serve.jobs_cancelled")
                cancelled.append(job_id)
                job = self._scheduler.jobs.get(job_id)
                if job is not None and job.finished:
                    finished.append(job)
            self._wakeup.notify_all()
        self.ops.emit("info", "server", "client-disconnected",
                      client=client.client_id, name=client.name,
                      cancelled_jobs=cancelled)
        for job in finished:
            self._finish_job(job)
        client.shutdown()

    # -- operations --------------------------------------------------------------

    def _handle_op(self, client: _ClientConn,
                   message: Dict[str, object]) -> None:
        op = protocol.require_op(message)
        if op == "hello":
            name = message.get("client")
            if isinstance(name, str) and name:
                client.name = name
            client.enqueue({"type": "welcome",
                            "proto": protocol.PROTOCOL_VERSION,
                            "client_id": client.client_id,
                            "workers": self.config.workers})
        elif op == "ping":
            client.enqueue({"type": "pong"})
        elif op == "status":
            client.enqueue(self._status_message())
        elif op == "metrics":
            with self._lock:
                self._update_queue_gauges()
                snapshot = self.metrics.snapshot()
            client.enqueue({"type": "metrics",
                            "text": render_prometheus(snapshot),
                            "snapshot": snapshot})
        elif op == "drain":
            client.enqueue({"type": "draining"})
            self.request_drain(reason=f"drain op from {client.client_id}")
        elif op == "cancel":
            self._handle_cancel(client, message)
        elif op == "submit":
            self._handle_submit(client, message)

    def _handle_submit(self, client: _ClientConn,
                       message: Dict[str, object]) -> None:
        raw_units = message.get("units")
        if not isinstance(raw_units, list):
            raise protocol.ProtocolError("'units' must be a list")
        units = [protocol.unit_from_wire(payload) for payload in raw_units]
        checker = protocol.checker_from_wire(self.config.checker,
                                             message.get("checker"))
        priority = message.get("priority", 0)
        if not isinstance(priority, int):
            raise protocol.ProtocolError("'priority' must be an integer")
        with self._wakeup:
            if self.draining:
                self.metrics.inc("serve.jobs_rejected")
                client.enqueue({"type": "rejected", "reason": "draining",
                                "detail": "server is draining"})
                self.ops.emit("warn", "scheduler", "job-rejected",
                              client=client.client_id, reason="draining",
                              units=len(units))
                return
            try:
                job = self._scheduler.submit(client.client_id, units,
                                             checker, priority=priority)
            except AdmissionError as exc:
                self.metrics.inc("serve.jobs_rejected")
                client.enqueue({"type": "rejected", "reason": exc.reason,
                                "detail": exc.detail})
                self.ops.emit("warn", "scheduler", "job-rejected",
                              client=client.client_id, reason=exc.reason,
                              units=len(units))
                return
            job.started_monotonic = time.monotonic()
            self._results[job.job_id] = []
            if self.config.results_dir:
                os.makedirs(self.config.results_dir, exist_ok=True)
                self._sinks[job.job_id] = JsonlResultSink(os.path.join(
                    self.config.results_dir, f"{job.job_id}.jsonl"))
            self.metrics.inc("serve.jobs_accepted")
            self._update_queue_gauges()
            # "accepted" must be enqueued BEFORE the dispatcher is notified
            # (i.e. inside the locked region): a warm-cache unit can complete
            # and emit its "result" as soon as the lock is released, and the
            # per-client outbox is the serialization point for wire order.
            client.enqueue({"type": "accepted", "job": job.job_id,
                            "units": job.total_units, "priority": priority},
                           timeout=5.0)      # bounded: we hold the lock
            self._wakeup.notify_all()
        self.ops.emit("info", "scheduler", "job-accepted", job=job.job_id,
                      client=client.client_id, units=job.total_units,
                      priority=priority)

    def _handle_cancel(self, client: _ClientConn,
                       message: Dict[str, object]) -> None:
        job_id = message.get("job")
        finished_job: Optional[Job] = None
        with self._wakeup:
            dropped = self._scheduler.cancel(job_id) \
                if isinstance(job_id, str) else None
            if dropped is not None:
                self.metrics.inc("serve.jobs_cancelled")
                job = self._scheduler.jobs.get(job_id)
                if job is not None and job.finished:
                    finished_job = job
                self._update_queue_gauges()
                self._wakeup.notify_all()
        if dropped is None:
            client.enqueue(protocol.error_message(
                "unknown-job", f"no live job {job_id!r}"))
            return
        client.enqueue({"type": "cancel-ok", "job": job_id,
                        "dropped": dropped})
        self.ops.emit("info", "scheduler", "job-cancelled", job=job_id,
                      client=client.client_id, dropped=dropped)
        if finished_job is not None:
            self._finish_job(finished_job)

    def _status_message(self) -> Dict[str, object]:
        # The whole snapshot is assembled under the scheduler lock, with the
        # queue gauges refreshed first: the direct queue_depth/in_flight
        # fields and the serve.* gauges inside `metrics` describe the same
        # instant and can never tear against a concurrent completion.
        with self._lock:
            self._update_queue_gauges()
            snapshot = self.metrics.snapshot()
            return {
                "type": "status",
                "proto": protocol.PROTOCOL_VERSION,
                "draining": self.draining,
                "queue_depth": self._scheduler.queue_depth(),
                "in_flight": self._scheduler.in_flight(),
                "active_jobs": self._scheduler.active_jobs(),
                "clients": len(self._clients),
                "workers": self.config.workers,
                "worker_pids": self.worker_pids,
                "worker_deaths": self._pool.deaths if self._pool else 0,
                "workers_detail": self._pool.worker_summary()
                if self._pool else [],
                "uptime_units": int(snapshot["counters"].get(
                    "serve.units_completed", 0)),
                "cache_entries": len(self.cache),
                "recent_events": self.ops.recent_events(8),
                "metrics": snapshot,
            }

    # -- dispatcher ---------------------------------------------------------------

    def _client_ready(self, client_id: str) -> bool:
        client = self._clients.get(client_id)
        if client is None:
            return False                      # job will be cancelled shortly
        return client.outbox.qsize() < self.config.outbox_high_water

    def _dispatch_loop(self) -> None:
        try:
            while True:
                with self._wakeup:
                    if self._stopped.is_set():
                        return
                    picked = None
                    if self._pool is not None and self._pool.has_capacity():
                        picked = self._scheduler.next_unit(self._client_ready)
                    if picked is None:
                        if self.draining:
                            if self._drained_locked():
                                self._wakeup.notify_all()
                                break
                            self._reap_stalled_locked()
                        self._wakeup.wait(timeout=0.05)
                        continue
                    job, index, unit = picked
                    task_id = f"{job.job_id}:{index}"
                    self._dispatch_times[task_id] = time.monotonic()
                    self._pool.submit(task_id, unit, config=job.checker)
                    self._update_queue_gauges()
        except BaseException as exc:
            self._dump_server_exception("dispatch", exc)
            raise
        self._shutdown()

    def _drained_locked(self) -> bool:
        return self._scheduler.idle() and \
            (self._pool is None or self._pool.outstanding == 0)

    def _reap_stalled_locked(self) -> None:
        """Cut clients that stopped reading while the server drains.

        A connected-but-wedged consumer keeps its outbox at high-water, so
        the scheduler never dispatches its remaining units and the drain can
        never complete.  After ``drain_stall_timeout`` seconds at high-water
        its jobs are cancelled and the connection dropped; closing the
        socket also errors out a writer thread blocked in ``sendall``.
        Called with the server lock held (the lock is re-entrant, so
        ``_finish_job`` may run inline for jobs with nothing in flight).
        """
        now = time.monotonic()
        for client in list(self._clients.values()):
            if client.outbox.qsize() < self.config.outbox_high_water:
                client.stalled_since = None
                continue
            if client.stalled_since is None:
                client.stalled_since = now
                continue
            if now - client.stalled_since < self.config.drain_stall_timeout:
                continue
            self._clients.pop(client.client_id, None)
            self.metrics.set_gauge("serve.clients", len(self._clients))
            self.metrics.inc("serve.clients_reaped")
            self.ops.emit("warn", "server", "client-reaped",
                          client=client.client_id, name=client.name,
                          outbox=client.outbox.qsize())
            finished: List[Job] = []
            for job_id in self._scheduler.cancel_client(client.client_id):
                self.metrics.inc("serve.jobs_cancelled")
                job = self._scheduler.jobs.get(job_id)
                if job is not None and job.finished:
                    finished.append(job)
            client.socket.close()             # unblocks sendall / recv
            client.shutdown()
            for job in finished:
                self._finish_job(job)

    # -- collector ----------------------------------------------------------------

    def _collect_loop(self) -> None:
        try:
            while not self._closing.is_set():
                if self._pool is None:
                    return
                try:
                    events = self._pool.collect(timeout=0.1)
                except (OSError, ValueError):
                    return                    # pool closed during shutdown
                for event in events:
                    self._handle_pool_event(event)
        except BaseException as exc:
            self._dump_server_exception("collect", exc)
            raise

    def _dump_server_exception(self, thread: str,
                               exc: BaseException) -> None:
        """Post-mortem for an unhandled exception on a service thread."""
        try:
            self.ops.emit("error", "server", "exception", dump=True,
                          thread=thread,
                          error=f"{type(exc).__name__}: {exc}")
        except Exception:
            pass                              # the dump must not mask `exc`

    def _handle_pool_event(self, event: PoolEvent) -> None:
        if event.kind == "retried":
            self.metrics.inc("serve.units_retried")
            return
        job_id, _, index_text = event.task_id.rpartition(":")
        index = int(index_text)
        result = event.result
        result.trace = result.meta.pop("obs", None)
        if event.kind == "failed":
            self.metrics.inc("serve.units_failed")
        slow_queries = result.slow_queries
        result.slow_queries = []
        for slow in slow_queries:
            self.metrics.inc("serve.slow_queries")
            self.ops.emit("warn", "solver", "slow-query", unit=result.name,
                          worker=event.worker_id, **slow)
        emit: List[Tuple[Job, int, UnitResult]] = []
        finished_job: Optional[Job] = None
        latency: Optional[float] = None
        with self._wakeup:
            started = self._dispatch_times.pop(event.task_id, None)
            if started is not None:
                latency = time.monotonic() - started
                self.metrics.observe("serve.unit_latency", latency)
            job = self._scheduler.jobs.get(job_id)
            for ready_index, ready in self._scheduler.complete(job_id, index,
                                                               result):
                emit.append((job, ready_index, ready))
            self.metrics.inc("serve.units_completed")
            if result.report is not None:
                self.metrics.inc("serve.warm_hits",
                                 result.report.cache_hits)
                self.metrics.inc("serve.queries", result.report.queries)
            if job is not None and job.finished:
                finished_job = job
            self._update_queue_gauges()
            self._wakeup.notify_all()
        if latency is not None:
            self.ops.flight.record_span(
                f"unit:{event.task_id}", latency, worker=event.worker_id,
                kind=event.kind, error=bool(result.error))
        for job, ready_index, ready in emit:
            self._emit_result(job, ready_index, ready)
        if finished_job is not None:
            self._finish_job(finished_job)

    def _emit_result(self, job: Job, index: int, result: UnitResult) -> None:
        """Stream one in-order unit record to the job's sink and client."""
        results = self._results.get(job.job_id)
        if results is None:
            return                            # job was cancelled and retired
        results.append(result)
        record = report_to_dict(result.name, result.report,
                                attempts=result.attempts,
                                escalated=result.escalated,
                                error=result.error, meta=result.meta)
        sink = self._sinks.get(job.job_id)
        if sink is not None:
            sink.write_unit(result.name, result.report,
                            attempts=result.attempts,
                            escalated=result.escalated, error=result.error,
                            meta=result.meta)
        client = self._clients.get(job.client_id)
        if client is not None:
            client.enqueue({"type": "result", "job": job.job_id,
                            "record": record})

    def _finish_job(self, job: Job) -> None:
        """Emit the run-summary record, retire the job, graft its trace."""
        with self._lock:
            if self._scheduler.finish(job.job_id) is None:
                return
            results = self._results.pop(job.job_id, [])
            sink = self._sinks.pop(job.job_id, None)
            self.metrics.inc("serve.jobs_completed")
            self._update_queue_gauges()
        wall_clock = time.monotonic() - job.started_monotonic
        stats = aggregate_results(results, wall_clock, workers=1)
        summary = stats.as_dict()
        import repro

        summary["version"] = repro.__version__
        summary["job"] = job.job_id
        summary["units_total"] = job.total_units
        summary["cancelled"] = job.cancelled
        summary["dropped"] = job.dropped
        summary["config"] = {
            "checker": config_snapshot(job.checker),
            "serve": {"workers": self.config.workers,
                      "priority": job.priority},
        }
        if sink is not None:
            sink.write_summary(summary)
            sink.close()
        # Emit the event before the client can see "job-done": a client
        # that asks for status right after it must find the event there.
        self.ops.emit("info", "scheduler", "job-done", job=job.job_id,
                      units=len(results), cancelled=job.cancelled,
                      dropped=job.dropped, wall=round(wall_clock, 6))
        client = self._clients.get(job.client_id)
        if client is not None:
            record = {"type": "run"}
            record.update(summary)
            client.enqueue({"type": "result", "job": job.job_id,
                            "record": record})
            status = "cancelled" if job.cancelled else "ok"
            client.enqueue({"type": "job-done", "job": job.job_id,
                            "status": status, "units": len(results)})
        self.ops.flight.record_span(f"job:{job.job_id}", wall_clock,
                                    units=len(results),
                                    cancelled=job.cancelled)
        self._graft_job_trace(job, results)
        with self._wakeup:
            self._wakeup.notify_all()

    def _graft_job_trace(self, job: Job, results: List[UnitResult]) -> None:
        if self.trace_root is None:
            return
        blobs = [result.trace for result in results if result.trace]
        if not blobs:
            return
        with self._lock:
            job_span = self.trace_root.child(f"job:{job.job_id}")
            job_span.ts = self._trace_offset
            offset = self._trace_offset
            for blob in blobs:
                graft(job_span, blob.get("spans", ()),
                      blob.get("timings", ()), offset=offset)
                timings = blob.get("timings") or ()
                if timings:
                    offset += float(timings[0][1])
                self.metrics.merge_snapshot(blob.get("metrics", {}))
            job_span.dur = offset - self._trace_offset
            self._trace_offset = offset
            self.trace_root.dur = offset

    # -- shutdown -----------------------------------------------------------------

    def _update_queue_gauges(self) -> None:
        self.metrics.set_gauge("serve.queue_depth",
                               self._scheduler.queue_depth())
        self.metrics.set_gauge("serve.in_flight", self._scheduler.in_flight())
        self.metrics.set_gauge("serve.active_jobs",
                               self._scheduler.active_jobs())

    def _shutdown(self) -> None:
        """Drain epilogue: flush everything, stop workers, close sockets.

        Runs on the dispatcher thread once the scheduler is idle and the
        pool is empty.  The collector is stopped *before* the pool closes —
        its worker reaper must not race ``close()`` over workers exiting
        via their shutdown sentinels.
        """
        try:
            self._closing.set()
            if self._collector_thread is not None:
                self._collector_thread.join(timeout=10.0)
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
            if self._pool is not None:
                self._pool.close(drain=True)
            self.cache.flush()
            for sink in self._sinks.values():     # cancelled leftovers
                sink.close()
            self._sinks.clear()
            if self.config.trace_path and self.trace_root is not None:
                from repro.obs.chrometrace import write_chrome_trace

                write_chrome_trace(self.config.trace_path, self.trace_root,
                                   metrics=self.metrics.snapshot()["counters"])
            with self._lock:
                clients = list(self._clients.values())
            for client in clients:
                client.shutdown()
            if os.path.exists(self.config.socket_path):
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass
            if self.config.metrics_path:
                try:                          # final scrape-able snapshot
                    write_metrics_file(self.config.metrics_path,
                                       self.metrics.snapshot())
                except OSError:
                    pass
            self.ops.emit("info", "server", "stopped",
                          reload=self.reload_requested,
                          units=int(self.metrics.snapshot()["counters"].get(
                              "serve.units_completed", 0)))
        finally:
            self._stopped.set()
            self.ops.close()


__all__ = ["ServeConfig", "ServeServer"]
