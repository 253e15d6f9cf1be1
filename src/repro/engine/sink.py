"""Streaming JSONL result sink for engine runs.

One line per completed work unit (written as results arrive, so a crashed
run still leaves everything finished on disk) plus a final ``run`` summary
line with the aggregate statistics.  Per-function and per-run records carry
the solver-level counters (incremental contexts, CDCL calls, restarts,
bit-blasted clauses, solver time) next to the Figure 16 query counts, so
incremental-vs-scratch speedups are observable straight from the JSONL.
The schemas are documented in ``docs/ENGINE.md`` and deliberately contain
only plain JSON types so the files can be post-processed with ``jq`` or
loaded into a dataframe.
"""

from __future__ import annotations

import json
import os
from typing import IO, Dict, Optional

from repro.core.report import (COUNTER_NAMES, SOLVER_COUNTERS, BugReport,
                               Counters, Diagnostic)

#: Record fields that measure wall-clock time.  Everything else in a unit
#: or run record is a deterministic function of the corpus and the checker
#: configuration; these are the only fields two otherwise identical runs
#: may disagree on.
TIMING_FIELDS = frozenset({
    "analysis_time", "solver_time", "witness_time", "repair_time",
    "cluster_time", "wall_clock", "elapsed",
})


def verdict_view(record: Dict[str, object]) -> Dict[str, object]:
    """A record with every timing field zeroed, recursively.

    Two runs over the same corpus under the same configuration — batch vs.
    served (docs/SERVE.md), sequential vs. parallel, cold vs. warm cache —
    must produce byte-identical ``verdict_view``-normalized records; the
    serve benchmark and tests assert exactly that.  Cache-dependent
    counters (``cache_hits`` and friends) are deliberately *kept*: callers
    comparing across cache states must account for them explicitly.
    """
    def scrub(value):
        if isinstance(value, dict):
            return {key: (0 if key in TIMING_FIELDS
                          and isinstance(child, (int, float))
                          else scrub(child))
                    for key, child in value.items()}
        if isinstance(value, list):
            return [scrub(child) for child in value]
        return value

    return scrub(record)


def diagnostic_to_dict(diagnostic: Diagnostic) -> Dict[str, object]:
    """Flatten one diagnostic into plain JSON types."""
    return {
        "function": diagnostic.function,
        "location": str(diagnostic.location),
        "algorithm": diagnostic.algorithm.value,
        "message": diagnostic.message,
        "fragment": diagnostic.fragment,
        "replacement": diagnostic.replacement,
        "ub_kinds": [kind.value for kind in diagnostic.ub_kinds],
        "classification": diagnostic.classification,
        "witness": diagnostic.witness.as_dict()
        if diagnostic.witness is not None else None,
        "repair": diagnostic.repair.as_dict()
        if diagnostic.repair is not None else None,
    }


def solver_block(counters: Counters) -> Dict[str, object]:
    """The solver counters: flat in function and unit records, the
    ``"solver"`` block of the run summary."""
    block: Dict[str, object] = {"contexts": counters.contexts}
    for name in SOLVER_COUNTERS:
        value = getattr(counters, name)
        block[name] = round(value, 6) if name in TIMING_FIELDS else value
    return block


def witnesses_block(counters: Counters) -> Dict[str, object]:
    """The ``"witnesses"`` block of function records and the run summary."""
    return {
        "confirmed": counters.witnesses_confirmed,
        "unconfirmed": counters.witnesses_unconfirmed,
        "inconclusive": counters.witnesses_inconclusive,
        "witness_time": round(counters.witness_time, 6),
    }


def repair_block(counters: Counters) -> Dict[str, object]:
    """The ``"repair"`` block of function records and the run summary."""
    return {
        "attempted": counters.repairs_attempted,
        "repaired": counters.repairs_succeeded,
        "rejected": counters.repairs_rejected,
        "no_template": counters.repairs_no_template,
        "gate_rejections": {
            "equivalence": counters.repair_gate_equivalence_rejects,
            "recheck": counters.repair_gate_recheck_rejects,
            "replay": counters.repair_gate_replay_rejects,
        },
        "repair_time": round(counters.repair_time, 6),
    }


def report_to_dict(name: str, report: BugReport,
                   error: Optional[str] = None,
                   meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Flatten one unit's bug report into the JSONL ``unit`` record.

    The unit's totals are flat, under their :class:`Counters` field names,
    except the repair gate rejections, which only function records and
    the run summary break out.
    """
    totals = report.totals()
    record: Dict[str, object] = {
        "type": "unit",
        "unit": name,
        "module": report.module,
        "error": error,
        "meta": dict(meta) if meta else {},
        "functions": [
            {
                "function": fr.function,
                "diagnostics": len(fr.diagnostics),
                "propagated": fr.cluster_propagated,
                "queries": fr.queries,
                "cache_hits": fr.cache_hits,
                "timeouts": fr.timeouts,
                **solver_block(fr),
                "analysis_time": round(fr.analysis_time, 6),
                "witnesses": witnesses_block(fr),
                "repair": repair_block(fr),
            }
            for fr in report.functions
        ],
        "diagnostics": [diagnostic_to_dict(d) for d in report.bugs],
    }
    for counter in COUNTER_NAMES:
        if not counter.startswith("repair_gate_"):
            value = getattr(totals, counter)
            record[counter] = round(value, 6) if counter in TIMING_FIELDS \
                else value
    return record


class JsonlResultSink:
    """Appends one JSON object per line to a results file as units finish."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self.lines_written = 0

    def write_unit(self, name: str, report: BugReport,
                   error: Optional[str] = None,
                   meta: Optional[Dict[str, object]] = None) -> None:
        self._write(report_to_dict(name, report, error=error, meta=meta))

    def write_summary(self, stats: Dict[str, object]) -> None:
        record = {"type": "run"}
        record.update(stats)
        self._write(record)

    def write_record(self, record: Dict[str, object]) -> None:
        """Append an arbitrary record with a stable (sorted-key) encoding.

        Byte-for-byte reproducibility matters to callers like the fuzz
        campaign, whose regression tests diff whole files across runs; the
        ``unit``/``run`` records keep their historical insertion order.
        """
        self._write(record, sort_keys=True)

    def _write(self, record: Dict[str, object], sort_keys: bool = False) -> None:
        if self._handle is None:
            raise RuntimeError("result sink is closed")
        self._handle.write(json.dumps(record, sort_keys=sort_keys) + "\n")
        self._handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlResultSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
