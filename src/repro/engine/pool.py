"""Warm worker pool: resident checker processes that outlive their tasks.

One pool runs every multi-process check.
:class:`~repro.engine.engine.CheckEngine` starts one per parallel run and
submits the whole corpus up front; the checking daemon (:mod:`repro.serve`)
holds one resident across jobs.  Each :class:`WarmWorkerPool` worker is a long-lived process that
imports the pipeline once, keeps its own
:class:`~repro.engine.cache.SolverQueryCache` (and with it every blast memo
the cache fronts) across every task it runs, and accepts work units one at
a time over its own task queue.  Workers are seeded from the parent's cache
when they spawn; a pool built without a cache checks without one.

Dispatch is least-loaded with ties to the lowest worker id, so a batch
submitted before the first :meth:`~WarmWorkerPool.collect` sends task *i*
to worker *i mod N*: each worker's cache sees a fixed sequence of units,
and per-unit counters repeat run to run.

Robustness contract (exercised by ``tests/test_serve.py``):

* **Worker death is survivable.**  Workers run their queue first in,
  first out, so the first task assigned to a dead worker is the one it was
  running.  That task alone is charged a retry (up to ``max_retries``, then
  reported ``failed``); the tasks queued behind it never started and move
  to live workers free of charge.  A replacement worker is spawned seeded
  from the authoritative cache, and the run completes with records for
  every surviving unit — no hang, no lost task, no duplicate result
  (first completion wins).
* **Workers ignore SIGINT.**  Ctrl-C reaches the whole foreground process
  group; the parent owns shutdown, through sentinels or ``terminate()``.
* **Graceful shutdown.**  ``close(drain=True)`` lets every queued task
  finish, collects the final cache entries, then stops workers via
  sentinels; ``close(drain=False)`` terminates them at once.

The pool is transport-agnostic: the engine and the daemon drive it, and
tests drive it directly.  Task identifiers are caller-chosen opaque strings.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.core.checker import CheckerConfig
from repro.core.report import BugReport
from repro.engine.cache import SolverQueryCache
from repro.engine.workunit import UnitResult, WorkUnit, check_work_unit
from repro.obs.ops import Ops

#: Environment flag gating test-only fault injection (see ``_worker_main``).
TEST_HOOKS_ENV = "REPRO_SERVE_TEST_HOOKS"

#: Unit meta key that, with :data:`TEST_HOOKS_ENV` set, makes the worker
#: process die mid-unit — the worker-death regression tests' crash lever.
CRASH_META_KEY = "__serve_crash__"

#: "fork" where available (fast), "spawn" elsewhere (Windows/macOS).
_START_METHOD = "fork" \
    if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _error_result(unit: WorkUnit, error: str) -> UnitResult:
    """The result of a unit that produced no report."""
    return UnitResult(name=unit.name, report=BugReport(module=unit.name),
                      error=error, meta=dict(unit.meta))


def _worker_main(worker_id: int, task_queue, result_queue,
                 checker: CheckerConfig,
                 cache_seed: Optional[List[dict]]) -> None:
    """Body of one warm worker process.

    The cache constructed here is the worker's warm state: it persists
    across every task the worker ever runs.  Discovered entries are drained
    into each result so the parent can absorb them into the authoritative
    cache (and seed future replacement workers from it).  A ``None`` seed
    means the parent has no cache, and the worker then checks without one.
    """
    # Ctrl-C signals the whole process group; the parent decides what stops.
    # A forked worker also inherits the parent's SIGTERM handler, which must
    # not turn terminate() into an exception the loop below would swallow.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    cache = None
    if cache_seed is not None:
        cache = SolverQueryCache()
        cache.seed(cache_seed)
    while True:
        task = task_queue.get()
        if task is None:
            result_queue.put(("bye", worker_id, None, None))
            return
        task_id, unit, config = task
        result_queue.put(("start", worker_id, task_id, None))
        if unit.meta.get(CRASH_META_KEY) and os.environ.get(TEST_HOOKS_ENV):
            time.sleep(0.05)              # let the "start" announcement flush
            os._exit(42)                  # simulated mid-unit worker death
        try:
            result = check_work_unit(unit, config or checker, cache=cache,
                                     drain_cache=True)
        except BaseException as exc:      # a bad unit must not kill the worker
            result = _error_result(unit, f"{type(exc).__name__}: {exc}")
        result_queue.put(("done", worker_id, task_id, result))


@dataclass
class _Task:
    task_id: str
    unit: WorkUnit
    config: Optional[CheckerConfig]
    worker_id: int = -1
    retries: int = 0


@dataclass
class PoolEvent:
    """One observable pool outcome, returned by :meth:`WarmWorkerPool.collect`.

    ``kind`` is ``"done"`` (``result`` set), ``"failed"`` (the task
    exhausted its retries on dying workers: ``error`` says so, and
    ``result`` is an error result for the unit), or ``"retried"``
    (informational: the task was resubmitted after a worker death).
    """

    kind: str
    task_id: str
    result: Optional[UnitResult] = None
    error: str = ""
    worker_id: int = -1
    cache_entries: List[dict] = field(default_factory=list)


class WarmWorkerPool:
    """A fixed-size pool of warm checker processes with death recovery."""

    def __init__(self, workers: int, checker: Optional[CheckerConfig] = None,
                 cache: Optional[SolverQueryCache] = None,
                 max_retries: int = 1,
                 completed_history: int = 4096,
                 ops: Optional[Ops] = None) -> None:
        if workers <= 0:
            raise ValueError("a warm pool needs at least one worker")
        self.workers = workers
        self.checker = checker if checker is not None else CheckerConfig()
        self.cache = cache
        self.max_retries = max_retries
        self.deaths = 0                       # workers lost over the lifetime
        self.ops = ops                        # operational event sink (or None)
        self._context = multiprocessing.get_context(_START_METHOD)
        self._result_queue = self._context.Queue()
        self._processes: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._task_queues: Dict[int, object] = {}
        self._assigned: Dict[int, List[str]] = {}
        self._worker_state: Dict[int, str] = {}
        self._worker_units: Dict[int, int] = {}
        self._worker_restarts: Dict[int, int] = {}
        # Guards the worker-tracking dicts only: the daemon's status op reads
        # worker_summary() from a client-reader thread while the collector
        # thread reaps and respawns.
        self._meta_lock = threading.Lock()
        self._tasks: Dict[str, _Task] = {}
        # Recently completed task ids, for duplicate-submit detection.  A
        # bounded ring, not a full history: the daemon processes millions of
        # units over its lifetime and an ever-growing set would be a leak.
        self._completed: set = set()
        self._completed_order: Deque[str] = deque()
        self._completed_history = max(1, completed_history)
        self._next_worker_id = 0
        self._closed = False
        for _ in range(workers):
            self._spawn_worker()

    # -- lifecycle ---------------------------------------------------------------

    def _emit(self, level: str, event: str, dump: bool = False,
              **fields) -> None:
        if self.ops is not None:
            self.ops.emit(level, "pool", event, dump=dump, **fields)

    def _spawn_worker(self, restarts: int = 0) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._context.Queue()
        seed = self.cache.snapshot() if self.cache is not None else None
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self._result_queue, self.checker,
                  seed),
            daemon=True)
        process.start()
        with self._meta_lock:
            self._processes[worker_id] = process
            self._task_queues[worker_id] = task_queue
            self._assigned[worker_id] = []
            self._worker_state[worker_id] = "idle"
            self._worker_units[worker_id] = 0
            self._worker_restarts[worker_id] = restarts
        self._emit("info", "worker-spawned", worker=worker_id,
                   pid=process.pid, restarts=restarts,
                   cache_seed=len(seed) if seed else 0)
        return worker_id

    def worker_summary(self) -> List[dict]:
        """Per-live-worker operational detail, for the ``status`` op."""
        with self._meta_lock:
            return [{"worker": worker_id,
                     "pid": self._processes[worker_id].pid,
                     "state": self._worker_state.get(worker_id, "idle"),
                     "units_done": self._worker_units.get(worker_id, 0),
                     "restarts": self._worker_restarts.get(worker_id, 0)}
                    for worker_id in sorted(self._processes)]

    @property
    def worker_pids(self) -> List[int]:
        with self._meta_lock:
            return [process.pid for process in self._processes.values()
                    if process.pid is not None]

    @property
    def outstanding(self) -> int:
        """Tasks submitted and not yet resolved (done or failed)."""
        return len(self._tasks)

    def has_capacity(self, slack: int = 1) -> bool:
        """True while dispatching more work keeps every worker busy without
        queueing more than ``slack`` extra tasks per worker."""
        return self.outstanding < self.workers * (1 + slack)

    # -- submission --------------------------------------------------------------

    def submit(self, task_id: str, unit: WorkUnit,
               config: Optional[CheckerConfig] = None) -> None:
        """Queue one unit on the least-loaded worker."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if task_id in self._tasks or task_id in self._completed:
            raise ValueError(f"duplicate task id {task_id!r}")
        task = _Task(task_id=task_id, unit=unit, config=config)
        self._tasks[task_id] = task
        self._dispatch(task)

    def _mark_completed(self, task_id: str) -> None:
        if task_id in self._completed:
            return
        self._completed.add(task_id)
        self._completed_order.append(task_id)
        while len(self._completed_order) > self._completed_history:
            self._completed.discard(self._completed_order.popleft())

    def _dispatch(self, task: _Task) -> None:
        worker_id = min(self._assigned,
                        key=lambda wid: (len(self._assigned[wid]), wid))
        task.worker_id = worker_id
        self._assigned[worker_id].append(task.task_id)
        self._task_queues[worker_id].put((task.task_id, task.unit, task.config))

    # -- collection --------------------------------------------------------------

    def collect(self, timeout: float = 0.1) -> List[PoolEvent]:
        """Drain finished work and recover from worker deaths.

        Blocks up to ``timeout`` seconds for the first message, then drains
        whatever else is immediately available.  Always checks worker
        liveness, so a death with no message traffic is still detected on
        the next call.
        """
        if self._closed:
            return []
        events: List[PoolEvent] = []
        deadline = time.monotonic() + timeout
        first = True
        while True:
            remaining = deadline - time.monotonic()
            if not first and remaining <= 0:
                break
            try:
                message = self._result_queue.get(
                    timeout=max(0.0, remaining) if first else 0.0)
            except queue_module.Empty:
                break
            first = False
            events.extend(self._handle_message(message))
        events.extend(self._reap_dead_workers())
        return events

    def _handle_message(self, message) -> List[PoolEvent]:
        kind, worker_id, task_id, payload = message
        if kind == "start":
            if worker_id in self._worker_state:
                self._worker_state[worker_id] = "busy"
            self._emit("debug", "task-started", worker=worker_id,
                       task=task_id)
            return []
        if kind == "bye":
            return []
        # kind == "done"
        if worker_id in self._worker_state:
            self._worker_state[worker_id] = "idle"
            self._worker_units[worker_id] += 1
        task = self._tasks.pop(task_id, None)
        if task is None:                      # duplicate after a retry raced
            return []
        self._mark_completed(task_id)
        self._emit("debug", "task-done", worker=worker_id, task=task_id)
        if task_id in self._assigned.get(task.worker_id, []):
            self._assigned[task.worker_id].remove(task_id)
        result: UnitResult = payload
        entries = result.cache_entries
        result.cache_entries = []
        if self.cache is not None and entries:
            self.cache.absorb(entries)
        return [PoolEvent(kind="done", task_id=task_id, result=result,
                          worker_id=worker_id, cache_entries=entries)]

    def _reap_dead_workers(self) -> List[PoolEvent]:
        events: List[PoolEvent] = []
        for worker_id, process in list(self._processes.items()):
            if process.is_alive():
                continue
            self.deaths += 1
            orphaned = [self._tasks[tid] for tid in self._assigned[worker_id]
                        if tid in self._tasks]
            dead_pid = process.pid
            dead_restarts = self._worker_restarts.get(worker_id, 0)
            with self._meta_lock:
                del self._processes[worker_id]
                del self._task_queues[worker_id]
                del self._assigned[worker_id]
                self._worker_state.pop(worker_id, None)
                self._worker_units.pop(worker_id, None)
                self._worker_restarts.pop(worker_id, None)
            # The death dump is the flight recorder's reason to exist: it
            # carries the dying unit's whole event trail out of the ring.
            self._emit("error", "worker-died", dump=True, worker=worker_id,
                       pid=dead_pid, exitcode=process.exitcode,
                       orphaned=[task.task_id for task in orphaned],
                       deaths=self.deaths)
            if not self._closed:
                # The replacement inherits the dead worker's restart count:
                # "restarts" answers "how many processes has this slot
                # burned", not "how often was this specific pid replaced".
                self._spawn_worker(restarts=dead_restarts + 1)
            if not orphaned:
                continue
            # Workers run their queue in order, so only the first orphan
            # was running when the worker died; the rest never started and
            # move to live workers without being charged a retry.
            task, queued = orphaned[0], orphaned[1:]
            if task.retries >= self.max_retries:
                del self._tasks[task.task_id]
                self._mark_completed(task.task_id)
                self._emit("error", "task-failed", task=task.task_id,
                           worker=worker_id, retries=task.retries)
                error = (f"worker {worker_id} died "
                         f"({task.retries} retries exhausted)")
                events.append(PoolEvent(
                    kind="failed", task_id=task.task_id,
                    result=_error_result(task.unit, error), error=error,
                    worker_id=worker_id))
            else:
                task.retries += 1
                # A crash-looping unit must not kill its replacement too.
                if task.unit.meta.get(CRASH_META_KEY):
                    task.unit.meta = {k: v for k, v in task.unit.meta.items()
                                      if k != CRASH_META_KEY}
                self._dispatch(task)
                self._emit("warn", "task-retried", task=task.task_id,
                           worker=worker_id, retries=task.retries)
                events.append(PoolEvent(kind="retried", task_id=task.task_id,
                                        worker_id=worker_id))
            for task in queued:
                self._dispatch(task)
        return events

    def drain(self, on_event: Optional[Callable[[PoolEvent], None]] = None,
              timeout: float = 60.0) -> List[PoolEvent]:
        """Collect until no task is outstanding (or ``timeout`` elapses)."""
        collected: List[PoolEvent] = []
        deadline = time.monotonic() + timeout
        while self._tasks and time.monotonic() < deadline:
            for event in self.collect(timeout=0.1):
                collected.append(event)
                if on_event is not None:
                    on_event(event)
        return collected

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop every worker: with ``drain``, let queued tasks finish and
        stop workers via sentinels; without, terminate them at once."""
        if self._closed:
            return
        if drain:
            self.drain(timeout=timeout)
        self._closed = True
        for task_queue in self._task_queues.values():
            if not drain:
                # Tasks still buffered for a worker about to be terminated
                # must not hold up interpreter exit.
                task_queue.cancel_join_thread()
                continue
            try:
                task_queue.put(None)
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for process in list(self._processes.values()):
            if drain:
                process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        with self._meta_lock:
            self._processes.clear()
            self._task_queues.clear()
            self._assigned.clear()
            self._worker_state.clear()
            self._worker_units.clear()
            self._worker_restarts.clear()
        self._result_queue.close()
        self._result_queue.join_thread()
        self._emit("info", "pool-closed", drained=drain, deaths=self.deaths)

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close(drain=False)


__all__ = ["CRASH_META_KEY", "PoolEvent", "TEST_HOOKS_ENV", "WarmWorkerPool"]
