"""Per-run text profile rendered from a span tree + metrics registry.

Mirrors the axes of the paper's Figure 16: where does the wall-clock go —
solver queries vs bit-blasting vs interpretation (witness replay) vs
everything else — plus a top-N table of the slowest individual spans by
self time (time not attributable to child spans).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

__all__ = ["aggregate_spans", "time_split", "render_profile"]

# Figure-16-style buckets: a span name's first matching prefix decides its
# bucket; unmatched spans fall into "other".
_SPLIT_PREFIXES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("solver", ("solver.query",)),
    ("frontend", ("stage1.", "unit:compile")),
    ("encode", ("stage2.",)),
    ("interp", ("stage5.", "witness.replay", "exec.")),
    ("repair", ("stage6.", "repair.gate")),
    ("cluster", ("cluster.",)),
)


def aggregate_spans(root: Span) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals: call count, total duration, self duration."""
    table: Dict[str, Dict[str, float]] = {}
    for node in root.walk():
        row = table.setdefault(node.name, {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += node.dur
        row["self"] += node.self_time()
    return table


def time_split(root: Span) -> Dict[str, float]:
    """Self-time per Figure-16 bucket (seconds)."""
    split = {name: 0.0 for name, _ in _SPLIT_PREFIXES}
    split["other"] = 0.0
    for node in root.walk():
        if node is root:
            continue
        bucket = "other"
        for name, prefixes in _SPLIT_PREFIXES:
            if any(node.name.startswith(p) or node.name == p.rstrip(".")
                   for p in prefixes):
                bucket = name
                break
        split[bucket] += node.self_time()
    return split


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s"
    return f"{value * 1000.0:7.2f}ms"


def render_profile(root: Span, metrics: Optional[MetricsRegistry] = None,
                   top: int = 10) -> str:
    """Human-readable profile for one traced run."""
    lines: List[str] = []
    lines.append(f"profile: {root.name}  (wall {root.dur:.3f}s, "
                 f"{len(root.walk())} spans)")

    split = time_split(root)
    total = sum(split.values()) or 1.0
    lines.append("")
    lines.append("time split (self time, Figure-16 axes):")
    for bucket, seconds in sorted(split.items(), key=lambda kv: -kv[1]):
        if seconds <= 0.0:
            continue
        share = 100.0 * seconds / total
        lines.append(f"  {bucket:<10} {_fmt_seconds(seconds)}  {share:5.1f}%")

    table = aggregate_spans(root)
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self"])
    lines.append("")
    lines.append(f"top {min(top, len(rows))} spans by self time:")
    lines.append(f"  {'span':<28} {'count':>6} {'total':>10} {'self':>10}")
    for name, row in rows[:top]:
        lines.append(f"  {name:<28} {int(row['count']):>6} "
                     f"{_fmt_seconds(row['total']):>10} "
                     f"{_fmt_seconds(row['self']):>10}")

    if metrics is not None and metrics.counters:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(metrics.counters.items()):
            if isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"  {name:<40} {rendered}")

    return "\n".join(lines)
