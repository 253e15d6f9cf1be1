"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_corpus --seed 7 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, in reference
seconds (wall time scaled by the host speed :mod:`perfbench.hostspeed`
samples during the run); ``--trace 1`` makes the traced run that gives the
per-layer split, in wall seconds.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value": ..., "unit": ...}``).  The lines before it
print every metric by name and unit, plus the notes a reader needs to trust
them.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "latency_p50_ms": "ms",
    "verdict_accuracy": "ratio",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(outcome, setups, scale) -> dict:
    """The end-to-end metrics; ``scale(start, end)`` gives an interval's
    time in seconds."""
    return {
        "setup_s": median(scale(*interval) for interval in setups),
        "units_per_s": outcome.units / sum(scale(*window)
                                           for window in outcome.windows),
        "latency_p50_ms": median(scale(*interval)
                                 for interval in outcome.samples) * 1000.0,
        "verdict_accuracy": outcome.matched / outcome.checked,
        "decided_share": 1.0 - outcome.timeouts / outcome.queries
        if outcome.queries else 1.0,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def report(name, args, outcome, setups, metrics, units, speed) -> None:
    """The human-readable lines printed before the JSON result."""
    from perfbench.hostspeed import REFERENCE_TICK_S
    from perfbench.stats import percentile, tail_percentile

    def wall(interval):
        return interval[1] - interval[0]

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"setup: {len(setups)} set-ups, wall "
          + ", ".join(f"{wall(t):.3f}" for t in setups) + " s")
    if speed is not None:
        raw = end_to_end(outcome, setups, lambda a, b: b - a)
        print(f"host speed: {len(speed.durations)} ticks, median "
              f"{median(speed.durations) * 1000.0:.3f} ms (reference "
              f"{REFERENCE_TICK_S * 1000.0:.3f} ms); times below are in "
              f"reference seconds. Wall clock: setup_s "
              f"{raw['setup_s']:.6f}, units_per_s {raw['units_per_s']:.6f}, "
              f"latency_p50_ms {raw['latency_p50_ms']:.6f}")
    for metric, value in metrics.items():
        print(f"  {metric:24s} {value:14.6f} {units[metric]}")
    samples = [speed.scaled(*t) if speed is not None else wall(t)
               for t in outcome.samples]
    n = len(samples)
    p90 = tail_percentile(samples, 0.9)
    beyond = percentile(samples, 0.9)[1] if n else 0
    if p90 is None:
        print(f"  latency_p90_ms           not reported: {n} samples, "
              f"{beyond} beyond p90 (needs 10)")
    else:
        print(f"  latency_p90_ms           {p90 * 1000.0:14.6f} ms "
              f"({n} samples, {beyond} beyond)")
    print(f"  latency samples          {n}")
    errors = outcome.failures / outcome.attempts if outcome.attempts else 0.0
    print(f"  error_rate               {errors:14.6f} ratio "
          f"({outcome.failures} of {outcome.attempts} attempts)")
    print(f"  verdicts                 {outcome.matched} of {outcome.checked} "
          f"match the known answer")
    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:1] = [ROOT, SRC]
    from perfbench.hostspeed import HostSpeed
    from perfbench.layers import Tracer
    from perfbench.workloads import PER_LAYER_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # A terminated run still stops its daemon and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Forked pool workers must die on the SIGTERM their pool sends them
    # when it closes; one that ran this handler instead could die holding
    # the pool's task lock and hang the pool's shutdown.
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](ROOT, workdir)
    tracer = Tracer() if args.trace else None
    # The untraced run samples the host's speed throughout; the traced run
    # reports wall times, which no tick may lengthen.
    speed = HostSpeed() if tracer is None else None
    workload.speed = speed
    setups = []
    try:
        if speed is not None:
            speed.start()
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup(args.seed)
            setups.append((started, time.perf_counter()))
        if tracer is None:
            outcome = workload.measure(args.seconds)
        else:
            outcome = workload.trace(args.seconds, tracer)
    finally:
        if speed is not None:
            speed.stop()
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass                     # another run is still using it

    if tracer is None:
        metrics = end_to_end(outcome, setups, speed.scaled)
        units = END_TO_END_UNITS
    else:
        metrics = {name: float(outcome.layers.get(name, 0.0))
                   for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write_spans(spans_path)
        outcome.notes.append(f"{len(tracer.spans)} spans written to "
                             f"{os.path.relpath(spans_path, ROOT)}")
    report(args.workload, args, outcome, setups, metrics, units, speed)
    correct = (not outcome.problems and outcome.checked > 0
               and outcome.matched == outcome.checked)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempts,
        "failed": outcome.failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
