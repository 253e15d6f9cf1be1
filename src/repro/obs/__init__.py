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

Import from the submodules: this package re-exports nothing, so importing
one layer (say :mod:`repro.obs.trace` on the check path) does not load the
exporters or the daemon's operational pieces.

See ``docs/OBSERVABILITY.md`` for the user-facing guide.
"""
