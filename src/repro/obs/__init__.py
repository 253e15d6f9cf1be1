"""``repro.obs`` — tracing, metrics, and profiling for the checker pipeline.

Three layers:

* :mod:`repro.obs.trace` — hierarchical spans with deterministic ids,
  a process-local tracer, and graft-based reassembly across the
  worker-process fan-out;
* :mod:`repro.obs.metrics` — counters/gauges/histograms behind one
  ``snapshot()``/``merge()`` protocol, plus the reflection helpers the
  legacy ``SolverStats``/``RunStats`` merges route through;
* exporters — :mod:`repro.obs.chrometrace` (Perfetto-loadable Chrome
  trace-event JSON) and :mod:`repro.obs.report` (per-run text profile
  along Figure 16's axes);
* operational observability for long-running processes —
  :mod:`repro.obs.ops` (structured event log, slow-query recorder),
  :mod:`repro.obs.promexport` (Prometheus text-format exporter), and
  :mod:`repro.obs.flightrec` (crash flight recorder) — the pieces the
  serve daemon wires together.

See ``docs/OBSERVABILITY.md`` for the user-facing guide.
"""

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
    merge_counter_dataclass,
)
from repro.obs.flightrec import FlightRecorder, validate_flight_record
from repro.obs.ops import (
    EventLog,
    Ops,
    SlowQueryRecorder,
    note_query,
    validate_log_record,
)
from repro.obs.promexport import (
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    validate_prometheus_text,
    write_metrics_file,
)
from repro.obs.report import aggregate_spans, render_profile, time_split
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    counter,
    current_tracer,
    graft,
    observe,
    restore,
    span,
    span_payloads,
    span_timings,
    traced,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "restore",
    "span",
    "tracing",
    "traced",
    "counter",
    "observe",
    "span_payloads",
    "span_timings",
    "graft",
    "MetricsRegistry",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "merge_counter_dataclass",
    "absorb_dataclass",
    "config_snapshot",
    "chrome_trace_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "validate_chrome_trace",
    "aggregate_spans",
    "time_split",
    "render_profile",
    "EventLog",
    "Ops",
    "SlowQueryRecorder",
    "note_query",
    "validate_log_record",
    "FlightRecorder",
    "validate_flight_record",
    "render_prometheus",
    "parse_prometheus",
    "sanitize_metric_name",
    "validate_prometheus_text",
    "write_metrics_file",
]
