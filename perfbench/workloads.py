"""The four benchmark workloads.

``cold_corpus``
    ``CheckEngine.check_corpus`` over the corpus, in process and
    sequentially, with an empty in-memory query cache on every pass.  CDCL
    does most of the work, and every distinct query is a cache miss
    followed by a store (the cache's write path).  Counts repeat exactly.
``warm_rerun``
    The same corpus, re-rendered with fresh identifiers on every pass, over
    a cache file filled during setup.  Every query is a cache read, so the
    cache key, frontend and lowering take the time and CDCL does nothing.
``served``
    A ``python -m repro serve --workers 2 --cache FILE`` daemon in its own
    process, seeded from a cache file made during setup.  One client
    connection runs a closed loop with two single-unit jobs in flight.
``cli``
    Back-to-back ``python -m repro check FILE --json`` processes over
    corpus files, each with a cold cache: interpreter start, imports and
    one check.

Each workload sets up :attr:`Workload.setup_repeats` times (the last
set-up is the one measured), then measures for the requested seconds.  A
traced run (:meth:`Workload.trace`) alternates untraced and traced passes
(batches of jobs for ``served``): the untraced ones give
``trace.overhead_share``, the traced ones the per-layer split.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.corpus import Corpus, build_corpus
from perfbench.hostspeed import HostSpeed
from perfbench.layers import (Span, Tracer, entry_points, layer_totals,
                              same_entry_points, self_times)

#: Concurrent single-unit jobs the ``served`` client keeps in flight
#: (the machine's core count).
SERVED_IN_FLIGHT = 2

#: Jobs per batch of a traced ``served`` run, which alternates untraced and
#: traced batches.
SERVED_BATCH_JOBS = 50

#: Seconds the ``served`` closed loop runs between two samples of the
#: host's speed.
SERVED_STRETCH_S = 1.0

#: Largest share of the traced wall time that no named layer may claim: the
#: self time of the root spans (``engine.self_s``).
UNCLAIMED_TOLERANCE = 0.15

#: Traced and untraced passes (or batches) a traced run makes at least.
MIN_TRACED_PASSES = 2

#: The unit ``cold_corpus`` and ``cli`` check once during set-up.
WARMUP_SNIPPET = "snippet-fig10_postgres_division_overflow"

PER_LAYER_UNITS: Dict[str, str] = {
    "frontend.calls": "count", "frontend.self_s": "s",
    "lower.calls": "count", "lower.self_s": "s",
    "core.self_s": "s",
    "cache.key_calls": "count", "cache.key_s": "s",
    "cache.lookups": "count", "cache.hits": "count",
    "cache.hit_ratio": "ratio", "cache.stores": "count",
    "cache.load_s": "s", "cache.self_s": "s",
    "simplify.calls": "count", "simplify.self_s": "s",
    "oracle.calls": "count", "oracle.decided": "count",
    "oracle.decided_ratio": "ratio", "oracle.self_s": "s",
    "bitblast.calls": "count", "bitblast.self_s": "s",
    "bitblast.clauses": "count",
    "sat.calls": "count", "sat.self_s": "s", "sat.conflicts": "count",
    "sat.decisions": "count", "sat.propagations": "count",
    "sat.restarts": "count",
    "solver.self_s": "s",
    "sink.records": "count", "sink.self_s": "s",
    "engine.self_s": "s", "engine.solver_queries": "count",
    "serve.admit_ms": "ms", "serve.overhead_ms": "ms",
    "serve.worker_s": "s", "serve.cache_hit_ratio": "ratio",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.check_s": "s",
    "trace.overhead_share": "ratio",
}

#: Self-time metrics and the span layers each one sums.
_SELF_TIMES = {
    "frontend.self_s": ("frontend",), "lower.self_s": ("lower",),
    "core.self_s": ("core",), "cache.key_s": ("cache.key",),
    "cache.load_s": ("cache.load",),
    "cache.self_s": ("cache.key", "cache.lookup", "cache.store",
                     "cache.load"),
    "simplify.self_s": ("simplify",), "oracle.self_s": ("oracle",),
    "bitblast.self_s": ("bitblast",), "sat.self_s": ("sat",),
    "solver.self_s": ("solver",), "sink.self_s": ("sink",),
    "engine.self_s": ("engine",),
}

_CALLS = {
    "frontend.calls": "frontend", "lower.calls": "lower",
    "cache.key_calls": "cache.key", "simplify.calls": "simplify",
    "oracle.calls": "oracle", "bitblast.calls": "bitblast",
    "sat.calls": "sat",
}

_COUNTERS = ("cache.lookups", "cache.hits", "cache.stores", "oracle.decided",
             "bitblast.clauses", "sat.conflicts", "sat.decisions",
             "sat.propagations", "sat.restarts", "sink.records")

#: Counters that must repeat exactly from one ``cold_corpus`` pass to the
#: next.
EXACT_COUNTERS = ("engine.solver_queries", "cache.key_calls",
                  "sat.conflicts", "sat.decisions", "sat.propagations",
                  "bitblast.clauses")


def layer_metrics(spans: Sequence[Span], counters: Dict[str, float],
                  passes: int) -> Dict[str, float]:
    """Per-pass layer metrics from a run's spans and counters."""
    totals = layer_totals(spans)
    out: Dict[str, float] = {}
    for metric, layers in _SELF_TIMES.items():
        out[metric] = sum(totals.get(layer, (0, 0.0))[1]
                          for layer in layers) / passes
    for metric, layer in _CALLS.items():
        out[metric] = totals.get(layer, (0, 0.0))[0] / passes
    for name in _COUNTERS:
        out[name] = counters.get(name, 0) / passes
    out["cache.hit_ratio"] = _ratio(out["cache.hits"], out["cache.lookups"])
    out["oracle.decided_ratio"] = _ratio(out["oracle.decided"],
                                         out["oracle.calls"])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _flagged(record: Dict[str, object]) -> bool:
    return bool(record.get("diagnostics"))


def _repo_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    """What one measured (or traced) window produced."""

    #: ``(start, end)`` of each pass, job or process, ``perf_counter()``.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    units: int = 0               # verdicts completed
    #: ``(start, end)`` of each stretch the work ran in: a pass, a check, a
    #: stretch of the ``served`` loop.  ``units_per_s`` is the units over
    #: their total length, each scaled by the host speed around it.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    attempts: int = 0
    failures: int = 0            # failed units, rejected jobs, exit code 2
    checked: int = 0             # verdicts compared with the known answer
    matched: int = 0
    queries: int = 0
    timeouts: int = 0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)


class Workload:
    """Set-up, measured window and traced window of one workload."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.corpus: Optional[Corpus] = None
        #: The untraced run's :class:`HostSpeed`, ticking while this process
        #: works; None in a traced run.
        self.speed: Optional[HostSpeed] = None

    def _paused_ticks(self):
        """Around work done by other processes; see :meth:`_sample_speed`."""
        return contextlib.nullcontext() if self.speed is None \
            else self.speed.paused()

    def _sample_speed(self, cpus: Iterable[int] = ()) -> None:
        """Host-speed ticks now, while no process of the workload runs."""
        if self.speed is not None:
            self.speed.sample(cpus)

    def setup(self, seed: int) -> None:
        self.corpus = build_corpus(seed)

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        raise NotImplementedError

    def expected(self, index: int) -> bool:
        return self.corpus.templates[index].expected_unstable


# -- in-process engine workloads ----------------------------------------------


@dataclass
class _Pass:
    start: float
    end: float
    solver_queries: int
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class _EnginePasses(Workload):
    """Passes of ``CheckEngine.check_corpus`` over re-rendered corpora, each
    on a new engine."""

    cache_file: Optional[str] = None

    def __init__(self, root: str, workdir: str) -> None:
        super().__init__(root, workdir)
        self.results_path = os.path.join(workdir, "results.jsonl")
        self._round = 0

    def _pass(self, outcome: Outcome,
              tracer: Optional[Tracer] = None) -> _Pass:
        from repro.engine.engine import CheckEngine, EngineConfig

        self._round += 1
        units = self.corpus.render(self._round)
        config = EngineConfig(workers=0, cache_path=self.cache_file,
                              results_path=self.results_path)

        def run():
            return CheckEngine(config).check_corpus(units)

        if tracer is not None:
            tracer.begin_trace()
        started = time.perf_counter()
        result = run() if tracer is None else tracer.span("engine", run)
        ended = time.perf_counter()

        for index, unit in enumerate(result.results):
            outcome.attempts += 1
            if not unit.ok:
                outcome.failures += 1
                continue
            outcome.units += 1
            outcome.checked += 1
            outcome.matched += bool(unit.report.bugs) == self.expected(index)
        outcome.queries += result.stats.queries
        outcome.timeouts += result.stats.timeouts
        self.check_pass(outcome, result.stats)
        return _Pass(started, ended, result.stats.solver_queries)

    def check_pass(self, outcome: Outcome, stats) -> None:
        pass

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            record = self._pass(outcome)
            outcome.samples.append((record.start, record.end))
        outcome.windows = list(outcome.samples)
        outcome.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
        return outcome

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        untraced: List[float] = []
        traced: List[_Pass] = []
        originals = entry_points()
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or min(len(untraced), len(traced)) < MIN_TRACED_PASSES):
            untraced.append(self._pass(outcome).wall)
            before = dict(tracer.counters)
            first_span = len(tracer.spans)
            tracer.install()
            try:
                record = self._pass(outcome, tracer)
            finally:
                tracer.remove()
            if not same_entry_points(originals, entry_points()):
                outcome.problem("a layer wrapper was left installed")
            record.counters = layer_metrics(
                tracer.spans[first_span:],
                {k: v - before.get(k, 0) for k, v in tracer.counters.items()},
                passes=1)
            record.counters["engine.solver_queries"] = record.solver_queries
            traced.append(record)
        outcome.windows.append((started, time.perf_counter()))

        layers = layer_metrics(tracer.spans, tracer.counters, len(traced))
        layers["engine.solver_queries"] = \
            sum(p.solver_queries for p in traced) / len(traced)
        layers["trace.overhead_share"] = \
            median([p.wall for p in traced]) / median(untraced) - 1.0
        outcome.layers = layers
        self.check_trace(outcome, traced)
        _check_accounting(outcome, tracer.spans)
        outcome.samples = [(p.start, p.end) for p in traced]
        return outcome

    def check_trace(self, outcome: Outcome, traced: Sequence[_Pass]) -> None:
        pass


class ColdCorpus(_EnginePasses):
    name = "cold_corpus"
    setup_repeats = 11           # a set-up takes a fraction of a second

    def setup(self, seed: int) -> None:
        from repro.engine.engine import CheckEngine, EngineConfig

        super().setup(seed)
        # One fixed snippet, the same whatever the seed, so lazy imports and
        # first-use work finish before timing.
        CheckEngine(EngineConfig(workers=0)).check_corpus(
            [self.corpus.render(0)[self.corpus.index(WARMUP_SNIPPET)]])

    def check_trace(self, outcome: Outcome, traced: Sequence[_Pass]) -> None:
        first = {name: traced[0].counters[name] for name in EXACT_COUNTERS}
        for record in traced[1:]:
            again = {name: record.counters[name] for name in EXACT_COUNTERS}
            if again != first:
                outcome.problem(f"exact counters differ between passes: "
                                f"{first} vs {again}")
        outcome.notes.append(
            f"exact counters, identical over {len(traced)} traced passes: "
            + ", ".join(f"{name}={int(value)}"
                        for name, value in first.items()))


class WarmRerun(_EnginePasses):
    name = "warm_rerun"

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.cache_file = os.path.join(self.workdir, "cache.jsonl")
        _fill_cache(self.cache_file, self.corpus)

    def check_pass(self, outcome: Outcome, stats) -> None:
        if stats.solver_queries != 0:
            outcome.problem(f"a warm pass sent {stats.solver_queries} "
                            f"queries to the solver")


# -- the daemon -----------------------------------------------------------------


@dataclass
class _Job:
    index: int                   # position in the closed loop
    template: int
    start: float
    latency: float
    records: List[Dict[str, object]]


def _unit_record(job: _Job) -> Optional[Dict[str, object]]:
    """The job's one unit record, or None when it streamed another number."""
    units = [r for r in job.records if r.get("type") == "unit"]
    return units[0] if len(units) == 1 else None


class Served(Workload):
    name = "served"

    def __init__(self, root: str, workdir: str) -> None:
        super().__init__(root, workdir)
        self.cache_file = os.path.join(workdir, "cache.jsonl")
        # Relative to the checkout root, which keeps the socket path short.
        self.socket_path = os.path.relpath(
            os.path.join(workdir, "serve.sock"), root)
        self.daemon: Optional[subprocess.Popen] = None
        self.daemon_peak_mb = 0.0    # of the daemon last stopped
        self.client = None
        self._next_job = 0

    def setup(self, seed: int) -> None:
        from repro.serve.client import ServeClient, ServeError

        super().setup(seed)
        _fill_cache(self.cache_file, self.corpus)
        with open(os.path.join(self.workdir, "daemon.out"), "ab") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket_path,
                 "--workers", str(SERVED_IN_FLIGHT),
                 "--cache", os.path.relpath(self.cache_file, self.root)],
                cwd=self.root, env=_repo_env(self.root),
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while self.client is None:
            if self.daemon.poll() is not None:
                raise RuntimeError("the serve daemon exited during start-up")
            try:
                self.client = ServeClient(self.socket_path, name="perfbench")
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        # Two jobs per worker before timing, so every worker has run a unit.
        self._next_job = 0
        self._jobs(Outcome(), None, limit=SERVED_IN_FLIGHT * 2)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon_peak_mb = _stop(self.daemon)
            self.daemon = None

    def _unit(self, index: int):
        """Job ``index`` of the loop: corpus slot and freshly named unit."""
        templates = self.corpus.templates
        slot = index % len(templates)
        round_ = 1 + index // len(templates)
        return slot, (templates[slot].name,
                      templates[slot].render(self.corpus.tag(round_, slot)))

    def _jobs(self, outcome: Outcome, tracer: Optional[Tracer],
              limit: Optional[int] = None,
              seconds: Optional[float] = None) -> List[_Job]:
        """Run the closed loop until ``limit`` jobs or ``seconds`` pass."""
        from repro.serve.client import ServeError, SubmitRejected

        jobs: List[_Job] = []
        errors: List[BaseException] = []
        lock = threading.Lock()
        first = self._next_job
        started = time.perf_counter()

        def one(index: int) -> None:
            slot, unit = self._unit(index)
            begun = time.perf_counter()
            records = self.client.submit([unit]).wait(timeout=120.0)
            latency = time.perf_counter() - begun
            with lock:
                jobs.append(_Job(index, slot, begun, latency, records))

        def loop() -> None:
            while True:
                with lock:
                    index = self._next_job
                    if limit is not None and index - first >= limit:
                        return
                    if seconds is not None and \
                            time.perf_counter() - started >= seconds:
                        return
                    self._next_job += 1
                    outcome.attempts += 1
                try:
                    if tracer is None:
                        one(index)
                    else:
                        tracer.begin_trace()
                        tracer.span("serve.job", one, index)
                except SubmitRejected:
                    with lock:
                        outcome.failures += 1
                except (ServeError, OSError) as exc:
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=loop, name=f"perfbench-client-{i}")
                   for i in range(SERVED_IN_FLIGHT)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.windows.append((started, time.perf_counter()))
        if errors:
            raise RuntimeError(f"served workload lost its daemon: {errors[0]}")
        jobs.sort(key=lambda job: job.index)
        for job in jobs:
            self._score(job, outcome)
        return jobs

    def _score(self, job: _Job, outcome: Outcome) -> None:
        units = [r for r in job.records if r.get("type") == "unit"]
        runs = [r for r in job.records if r.get("type") == "run"]
        if len(units) != 1 or len(runs) != 1:
            outcome.failures += 1
            outcome.problem(f"job {job.index} streamed {len(units)} unit and "
                            f"{len(runs)} run records")
            return
        unit, run = units[0], runs[0]
        if unit.get("error"):
            outcome.failures += 1
            return
        outcome.units += 1
        outcome.samples.append((job.start, job.start + job.latency))
        outcome.checked += 1
        outcome.matched += _flagged(unit) == self.expected(job.template)
        outcome.queries += int(run["queries"])
        outcome.timeouts += int(run["timeouts"])
        if run["solver_queries"] != 0:
            outcome.problem(f"a warm job sent {run['solver_queries']} "
                            f"queries to the solver")

    def measure(self, seconds: float) -> Outcome:
        """The closed loop in stretches of :data:`SERVED_STRETCH_S`, with
        the host's speed sampled on every CPU while no job is in flight."""
        outcome = Outcome()
        jobs: List[_Job] = []
        cpus = os.sched_getaffinity(0)
        with self._paused_ticks():
            started = time.perf_counter()
            while (left := seconds - (time.perf_counter() - started)) > 0:
                self._sample_speed(cpus)
                jobs += self._jobs(outcome, None,
                                   seconds=min(SERVED_STRETCH_S, left))
            self._sample_speed(cpus)
        self._check_identity(jobs, outcome)
        self.teardown()
        outcome.peak_rss_mb = self.daemon_peak_mb
        return outcome

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        originals = entry_points()
        untraced: List[_Job] = []
        traced: List[_Job] = []
        batches = 0
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or batches < MIN_TRACED_PASSES):
            untraced += self._jobs(outcome, None, limit=SERVED_BATCH_JOBS)
            tracer.install()
            try:
                traced += self._jobs(outcome, tracer, limit=SERVED_BATCH_JOBS)
            finally:
                tracer.remove()
            if not same_entry_points(originals, entry_points()):
                outcome.problem("a layer wrapper was left installed")
            batches += 1
        self._check_identity(untraced, outcome)

        admits = [s.duration for s in tracer.spans if s.layer == "serve.admit"]
        totals = {"queries": 0, "cache_hits": 0, "sat_calls": 0}
        overheads, workers = [], []
        for job in traced:
            unit = _unit_record(job)
            if unit is None:
                continue                 # already failed by _score
            for key in totals:
                totals[key] += int(unit[key])
            overheads.append(job.latency - float(unit["analysis_time"]))
            workers.append(float(unit["analysis_time"]))
        if not (admits and workers and untraced):
            outcome.problem("the traced run completed no job")
            self.teardown()
            return outcome
        jobs = len(workers)
        hit_ratio = _ratio(totals["cache_hits"], totals["queries"])
        outcome.layers = {
            "serve.admit_ms": median(admits) * 1000.0,
            "serve.overhead_ms": median(overheads) * 1000.0,
            "serve.worker_s": median(workers),
            "serve.cache_hit_ratio": hit_ratio,
            "cache.lookups": totals["queries"] / jobs,
            "cache.hits": totals["cache_hits"] / jobs,
            "cache.hit_ratio": hit_ratio,
            "sat.calls": totals["sat_calls"] / jobs,
            "engine.solver_queries":
                (totals["queries"] - totals["cache_hits"]) / jobs,
            "trace.overhead_share":
                median([j.latency for j in traced])
                / median([j.latency for j in untraced]) - 1.0,
        }
        if hit_ratio != 1.0:
            outcome.problem(f"served cache hit ratio is {hit_ratio}, not 1")
        _check_nesting(outcome, tracer.spans)
        # The checker runs in the daemon's workers, out of the tracer's
        # reach: what a job's latency holds besides admission and the
        # worker's analysis time is the overhead, and it cannot be negative.
        short = sum(overhead < 0 for overhead in overheads)
        if short:
            outcome.problem(f"{short} jobs report more analysis time than "
                            f"their latency")
        outcome.notes.append(f"accounting: {short} of {jobs} traced jobs "
                             f"report more analysis time than their latency")
        outcome.samples = [(j.start, j.start + j.latency) for j in traced]
        self.teardown()
        return outcome

    def _check_identity(self, jobs: Sequence[_Job], outcome: Outcome) -> None:
        """Served unit records equal batch records, timing fields zeroed,
        over the first pass of the loop through the corpus."""
        from repro.engine.engine import CheckEngine, EngineConfig
        from repro.engine.sink import verdict_view

        first_pass = jobs[:len(self.corpus.templates)]
        if not first_pass:
            return
        batch_path = os.path.join(self.workdir, "batch.jsonl")
        CheckEngine(EngineConfig(workers=0, cache_path=self.cache_file,
                                 results_path=batch_path)).check_corpus(
            [self._unit(job.index)[1] for job in first_pass])
        with open(batch_path, encoding="utf-8") as handle:
            batch = [json.loads(line) for line in handle if line.strip()]
        batch_units = [r for r in batch if r.get("type") == "unit"]
        if len(batch_units) != len(first_pass):
            outcome.problem("the batch run lost units")
        for job, expected in zip(first_pass, batch_units):
            served = _unit_record(job)
            if served is None:
                continue                 # already failed by _score
            if json.dumps(verdict_view(served), sort_keys=True) != \
                    json.dumps(verdict_view(expected), sort_keys=True):
                outcome.problem(f"served record of {served.get('unit')} "
                                f"differs from the batch record")
        outcome.notes.append(f"verdict identity: {len(first_pass)} served "
                             f"unit records compared with batch records")


# -- one-file CLI checks ----------------------------------------------------------


class Cli(Workload):
    name = "cli"
    setup_repeats = 7            # a set-up takes about 0.4 s

    def setup(self, seed: int) -> None:
        super().setup(seed)
        directory = os.path.join(self.workdir, "cli")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        self.paths = []
        for index, (name, source) in enumerate(self.corpus.render(0)):
            path = os.path.join(directory, f"{index:03d}-{name}.c")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            self.paths.append(path)
        self.env = _repo_env(self.root)
        self._next = 0
        # This process, and with it every check it starts, runs on one CPU,
        # where the host-speed ticks are taken too.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # One check of a fixed snippet, so the interpreter and the checker's
        # modules are in the page cache before timing.
        with self._paused_ticks():
            self._sample_speed()
            self._check(self.corpus.index(WARMUP_SNIPPET), Outcome())
            self._sample_speed()

    def _check(self, index: int, outcome: Outcome,
               probe_out: Optional[str] = None) -> Tuple[float, float]:
        """One ``repro check`` process over corpus file ``index``; its
        ``(start, end)``."""
        path = self.paths[index]
        if probe_out is None:
            command = [sys.executable, "-m", "repro", "check", path, "--json"]
        else:
            command = [sys.executable,
                       os.path.join(self.root, "perfbench", "cli_probe.py"),
                       probe_out, "check", path, "--json"]
        outcome.attempts += 1
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=self.root, env=self.env,
                                   capture_output=True, timeout=120)
        interval = (started, time.perf_counter())
        if completed.returncode not in (0, 1):
            outcome.failures += 1
            return interval
        record = json.loads(completed.stdout)
        flagged = _flagged(record)
        if completed.returncode != int(flagged):
            outcome.problem(f"{path}: exit code {completed.returncode} "
                            f"disagrees with the JSON record")
        outcome.units += 1
        outcome.checked += 1
        outcome.matched += flagged == self.expected(index)
        outcome.queries += int(record["queries"])
        outcome.timeouts += int(record["timeouts"])
        return interval

    def _take(self) -> int:
        index = self._next % len(self.paths)
        self._next += 1
        return index

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        with self._paused_ticks():
            started = time.perf_counter()
            while time.perf_counter() - started < seconds:
                self._sample_speed()
                outcome.samples.append(self._check(self._take(), outcome))
            self._sample_speed()
        outcome.windows = list(outcome.samples)
        outcome.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        return outcome

    def _python(self, code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=self.root,
                       env=self.env, check=True, capture_output=True,
                       timeout=120)
        return time.perf_counter() - started

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        outcome = Outcome()
        interpreter, imports, plain, traced = [], [], [], []
        probe_out = os.path.join(self.workdir, "probe.json")
        counters: Dict[str, float] = {}
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or len(traced) < MIN_TRACED_PASSES):
            index = self._take()
            interpreter.append(self._python("pass"))
            imports.append(self._python("import repro.__main__"))
            plain.append(self._check(index, outcome))
            traced.append(self._check(index, outcome, probe_out))
            with open(probe_out, encoding="utf-8") as handle:
                probe = json.load(handle)
            tracer.adopt(probe["spans"])
            for name, value in probe["counters"].items():
                counters[name] = counters.get(name, 0) + value
        outcome.windows.append((started, time.perf_counter()))

        roots = [s.duration for s in tracer.spans if s.parent == 0]
        layers = layer_metrics(tracer.spans, counters, len(traced))
        layers["engine.solver_queries"] = \
            outcome.queries / max(1, outcome.units)
        layers["cli.interpreter_s"] = median(interpreter)
        layers["cli.import_s"] = median(
            [b - a for a, b in zip(interpreter, imports)])
        layers["cli.check_s"] = median(roots)
        layers["trace.overhead_share"] = \
            median(b - a for a, b in traced) / median(b - a for a, b in plain) \
            - 1.0
        outcome.layers = layers
        _check_accounting(outcome, tracer.spans)
        outcome.samples = plain
        return outcome


# -- shared helpers -------------------------------------------------------------


def _check_nesting(outcome: Outcome, spans: Sequence[Span]) -> None:
    """Every span lies inside its parent, on its parent's trace.

    This is what makes the self times of a trace add up to its root spans'
    duration; a span recorded on the wrong thread or outside its caller
    breaks it.
    """
    by_id = {span.sid: span for span in spans}
    for span in spans:
        if not span.parent:
            continue
        parent = by_id.get(span.parent)
        if parent is None or parent.trace != span.trace \
                or span.start < parent.start or span.end > parent.end:
            outcome.problem(f"a {span.layer} span lies outside its parent")
            return


def _check_accounting(outcome: Outcome, spans: Sequence[Span]) -> None:
    """Spans nest, self times are non-negative, and the named layers claim
    all but :data:`UNCLAIMED_TOLERANCE` of the traced wall time."""
    _check_nesting(outcome, spans)
    selfs = self_times(spans)
    if selfs and min(selfs.values()) < -1e-9:
        outcome.problem("a span has negative self time")
    roots = [span for span in spans if not span.parent]
    wall = sum(span.duration for span in roots)
    unclaimed = sum(selfs[span.sid] for span in roots)
    share = unclaimed / wall if wall else 0.0
    if share > UNCLAIMED_TOLERANCE:
        outcome.problem(f"no layer claims {share * 100:.1f}% of the traced "
                        f"wall time")
    outcome.notes.append(
        f"accounting: layers sum to {sum(selfs.values()):.4f} s of "
        f"{wall:.4f} s traced wall time; {unclaimed:.4f} s "
        f"({share * 100:.2f}%) is claimed by no named layer (tolerance "
        f"{UNCLAIMED_TOLERANCE * 100:.0f}%)")


def _fill_cache(path: str, corpus: Corpus) -> None:
    """A fresh cache file holding every query of the corpus.

    Filled by the sequential engine, in this process, where the host-speed
    ticks can time the set-up alongside it.
    """
    from repro.engine.engine import CheckEngine, EngineConfig

    if os.path.exists(path):
        os.unlink(path)
    CheckEngine(EngineConfig(workers=0, cache_path=path)
                ).check_corpus(corpus.render(0))


def _peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def _stop(process: subprocess.Popen) -> float:
    """SIGTERM (a graceful drain), then SIGKILL; always reaped.

    Returns the peak resident memory in MB of the process and of the
    children it reaped (the daemon's workers), or 0 when it was already
    reaped.
    """
    if process.returncode is not None:
        return 0.0
    process.terminate()
    deadline = time.monotonic() + 30.0
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            process.kill()
            pid, status, usage = os.wait4(process.pid, 0)
            break
        time.sleep(0.01)
    process.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return usage.ru_maxrss / 1024.0


WORKLOADS = {cls.name: cls for cls in (ColdCorpus, WarmRerun, Served, Cli)}
