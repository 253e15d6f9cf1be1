"""repro — a reproduction of STACK (SOSP 2013).

STACK detects *optimization-unstable code*: code that a C compiler may
silently discard by assuming the program never invokes undefined behavior.
This package re-implements the full system in Python:

* :mod:`repro.frontend` — a MiniC frontend (lexer, parser, types, sema),
* :mod:`repro.ir` — an LLVM-flavoured intermediate representation,
* :mod:`repro.lower` — AST→IR lowering and inlining with origin tracking,
* :mod:`repro.solver` — a QF_BV constraint solver (bit-blasting + CDCL SAT),
* :mod:`repro.core` — the STACK checker itself (UB conditions, elimination,
  simplification, minimal UB sets, report generation and classification),
* :mod:`repro.compilers` — simulated compiler profiles used for the paper's
  compiler survey (Figure 4),
* :mod:`repro.corpus` — the paper's code snippets and synthetic corpora,
* :mod:`repro.engine` — the parallel corpus-checking engine (worker pool,
  solver-query cache, JSONL result streaming),
* :mod:`repro.exec` — the concrete-execution subsystem: an IR interpreter
  with runtime UB detection, witness replay for diagnostics
  (``CheckerConfig(validate_witnesses=True)``), and differential testing of
  the UB-exploiting optimizer,
* :mod:`repro.repair` — the auto-repair subsystem
  (``CheckerConfig(repair=True)``): template rewrites for unstable idioms,
  each patch proven by solver equivalence, a stability re-check under every
  compiler profile, and witness replay before it is reported,
* :mod:`repro.fuzz` — the generative fuzzing subsystem (``python -m repro
  fuzz``): seeded MiniC/IR program generation across the UB taxonomy,
  checker-guided campaigns through the engine, and ddmin reduction of every
  finding to a minimal reproducer,
* :mod:`repro.obs` — the observability layer (``--trace OUT.json``):
  deterministic hierarchical spans across every pipeline stage, a unified
  counter/gauge/histogram registry behind the existing stats objects, and
  Chrome trace-event / JSONL / text-profile exporters (docs/OBSERVABILITY.md),
* :mod:`repro.serve` — the always-on checking service (``python -m repro
  serve`` / ``submit``): a daemon holding warm engine workers and the
  solver-query cache resident across jobs, speaking line-delimited JSON
  over a Unix socket with deterministic scheduling, quotas, backpressure,
  and graceful drain (docs/SERVE.md),
* :mod:`repro.experiments` — drivers that regenerate every table and figure.

Quickstart::

    from repro import check_source

    report = check_source('''
        int f(int *p) {
            int x = *p;
            if (!p) return -1;
            return x;
        }
    ''')
    for bug in report.bugs:
        print(bug.describe())
"""

__version__ = "1.0.0"

__all__ = [
    "BugReport",
    "CheckEngine",
    "CheckerConfig",
    "Diagnostic",
    "EngineConfig",
    "EngineResult",
    "RepairReport",
    "RepairStatus",
    "SolverQueryCache",
    "StackChecker",
    "check_corpus",
    "check_function",
    "check_module",
    "check_modules_parallel",
    "check_source",
    "compile_source",
    "run_differential",
    "run_function",
    "FuzzConfig",
    "FuzzResult",
    "run_fuzz_campaign",
    "ServeClient",
    "ServeConfig",
    "ServeServer",
    "check_via_server",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "render_profile",
    "span",
    "tracing",
    "write_chrome_trace",
    "__version__",
]

_LAZY_ATTRS = {
    "check_corpus": ("repro.api", "check_corpus"),
    "check_function": ("repro.api", "check_function"),
    "check_module": ("repro.api", "check_module"),
    "check_modules_parallel": ("repro.api", "check_modules_parallel"),
    "check_source": ("repro.api", "check_source"),
    "compile_source": ("repro.api", "compile_source"),
    "StackChecker": ("repro.core.checker", "StackChecker"),
    "CheckerConfig": ("repro.core.checker", "CheckerConfig"),
    "BugReport": ("repro.core.report", "BugReport"),
    "Diagnostic": ("repro.core.report", "Diagnostic"),
    "CheckEngine": ("repro.engine.engine", "CheckEngine"),
    "EngineConfig": ("repro.engine.engine", "EngineConfig"),
    "EngineResult": ("repro.engine.engine", "EngineResult"),
    "RepairReport": ("repro.repair.repair", "RepairReport"),
    "RepairStatus": ("repro.repair.repair", "RepairStatus"),
    "SolverQueryCache": ("repro.engine.cache", "SolverQueryCache"),
    "run_differential": ("repro.exec.diff", "run_differential"),
    "run_function": ("repro.exec.interp", "run_function"),
    "FuzzConfig": ("repro.fuzz.campaign", "FuzzConfig"),
    "FuzzResult": ("repro.fuzz.campaign", "FuzzResult"),
    "run_fuzz_campaign": ("repro.fuzz.campaign", "run_fuzz_campaign"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "ServeConfig": ("repro.serve.server", "ServeConfig"),
    "ServeServer": ("repro.serve.server", "ServeServer"),
    "check_via_server": ("repro.serve.client", "check_via_server"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "Span": ("repro.obs.trace", "Span"),
    "Tracer": ("repro.obs.trace", "Tracer"),
    "render_profile": ("repro.obs.report", "render_profile"),
    "span": ("repro.obs.trace", "span"),
    "tracing": ("repro.obs.trace", "tracing"),
    "write_chrome_trace": ("repro.obs.chrometrace", "write_chrome_trace"),
}


def __getattr__(name: str):
    """Lazily resolve the public API to keep sub-package imports independent."""
    target = _LAZY_ATTRS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
