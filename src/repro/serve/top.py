"""Live terminal dashboard for the serve daemon (``python -m repro top``).

``repro top`` polls the daemon's ``status`` op (which carries the full
metrics snapshot, per-worker detail, and the most recent operational
events — see docs/SERVE.md) and renders one screenful per poll: queue
depth and in-flight counts, per-worker state, the warm-hit rate, a
unit-latency histogram sparkline, and the event tail.  ``--once`` prints a
single frame and exits; ``--once --json`` dumps the raw status reply for
scripts and the CI serve-smoke job.

:func:`render_dashboard` is a pure function of the status reply, so the
rendering is testable without a daemon.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, List, Mapping

__all__ = ["render_dashboard", "top_main"]

_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(counts: List[float]) -> str:
    peak = max(counts) if counts else 0
    if peak <= 0:
        return "▁" * max(1, len(counts))
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int(count / peak * (len(_SPARK) - 1) + 0.5))]
        for count in counts)


def _format_le(upper: Any) -> str:
    number = float(upper)
    if number == float("inf"):
        return "+Inf"
    if number >= 1:
        return f"{number:g}s"
    return f"{number * 1000:g}ms"


def _warm_hit_rate(counters: Mapping[str, Any]) -> str:
    queries = counters.get("serve.queries", 0)
    if not queries:
        return "n/a"
    return f"{100.0 * counters.get('serve.warm_hits', 0) / queries:.1f}%"


def render_dashboard(status: Mapping[str, Any]) -> str:
    """One status reply as a fixed-width text dashboard."""
    metrics = status.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    lines = [
        "repro serve — {state} · {clients} client(s) · {workers} worker(s) "
        "· {deaths} death(s)".format(
            state="draining" if status.get("draining") else "running",
            clients=status.get("clients", 0),
            workers=status.get("workers", 0),
            deaths=status.get("worker_deaths", 0)),
        "queue {depth:>5} queued · {in_flight:>3} in-flight · "
        "{jobs:>3} active job(s)".format(
            depth=status.get("queue_depth", 0),
            in_flight=status.get("in_flight", 0),
            jobs=status.get("active_jobs", 0)),
        "units {done:>5} completed · {retried} retried · {failed} failed · "
        "warm-hit rate {rate}".format(
            done=status.get("uptime_units", 0),
            retried=counters.get("serve.units_retried", 0),
            failed=counters.get("serve.units_failed", 0),
            rate=_warm_hit_rate(counters)),
        "cache {entries} entries · {slow} slow quer{y}".format(
            entries=status.get("cache_entries", 0),
            slow=counters.get("serve.slow_queries", 0),
            y="y" if counters.get("serve.slow_queries", 0) == 1 else "ies"),
    ]

    latency = histograms.get("serve.unit_latency")
    if latency:
        counts = [float(count) for count in latency.get("counts", ())]
        count = latency.get("count", 0)
        mean = latency.get("sum", 0.0) / count if count else 0.0
        buckets = list(latency.get("buckets", ()))
        span = f"{_format_le(buckets[0])}..{_format_le(buckets[-1])}" \
            if buckets else ""
        lines.append(f"unit latency {_sparkline(counts)}  "
                     f"{span}  mean {mean * 1000:.1f}ms over {count}")

    detail = status.get("workers_detail") or []
    if detail:
        lines.append("workers:")
        for worker in detail:
            lines.append(
                "  #{worker:<3} pid {pid:<8} {state:<5} "
                "{units_done:>5} unit(s) · {restarts} restart(s)".format(
                    worker=worker.get("worker", "?"),
                    pid=worker.get("pid", "?"),
                    state=worker.get("state", "?"),
                    units_done=worker.get("units_done", 0),
                    restarts=worker.get("restarts", 0)))

    events = status.get("recent_events") or []
    if events:
        lines.append("recent events:")
        for event in events:
            fields = event.get("fields", {})
            summary = " ".join(f"{key}={fields[key]}"
                               for key in sorted(fields))[:60]
            lines.append("  {level:<5} {component}/{event} {summary}".format(
                level=event.get("level", "?"),
                component=event.get("component", "?"),
                event=event.get("event", "?"),
                summary=summary).rstrip())
    return "\n".join(lines)


def top_main(args) -> int:
    """Entry point behind ``python -m repro top``."""
    from repro.serve.client import ServeClient, ServeError

    try:
        with ServeClient(args.socket, name="repro-top") as client:
            while True:
                status = client.status()
                if args.once:
                    if args.json:
                        print(json.dumps(status, sort_keys=True))
                    else:
                        print(render_dashboard(status))
                    return 0
                sys.stdout.write("\x1b[2J\x1b[H"    # clear screen, home
                                 + render_dashboard(status) + "\n")
                sys.stdout.flush()
                time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0
    except (ServeError, OSError) as exc:
        print(f"repro top: cannot reach daemon at {args.socket}: {exc}",
              file=sys.stderr)
        return 1
