"""Command-line interface: ``python -m repro [options] file.c``.

The smallest useful slice of ``stack-build``: check one C-like source file
for optimization-unstable code and print the report.  ``--json`` emits the
same record the engine's JSONL sink streams (one ``unit`` object, see
docs/ENGINE.md), so shell pipelines and the corpus engine share a format.
``--validate`` enables the stage-5 concrete witness replay (docs/EXEC.md);
``--repair`` enables the stage-6 solver-verified auto-repair and
``--patch-out`` writes the emitted unified IR diffs to a file (or ``-``
for stdout).  ``--seed`` feeds the witness/repair replays and ``--diff``
(the seeded differential optimizer run), so validation runs reproduce bit
for bit.

``python -m repro fuzz`` runs a generative fuzzing campaign instead of
checking one file (docs/FUZZ.md): ``--budget`` generated programs from
``--seed``, optionally ``--reduce``-d to minimal reproducers, with the
deterministic JSONL stream written to ``--out``.

``python -m repro cluster`` checks a corpus with structural-clustering
dedup (docs/CLUSTER.md): source files (or a ``--synthetic N`` snippet
corpus) are fingerprinted, grouped into equivalence clusters, and one
representative per cluster is solved; confirmed members receive the
propagated verdict.  ``--no-cluster`` runs the same corpus exhaustively
for A/B comparisons.

``python -m repro serve`` runs the always-on checking daemon
(docs/SERVE.md): a pool of warm worker processes behind a local socket,
accepting jobs over line-delimited JSON and streaming engine-schema
records back.  ``python -m repro submit`` is its command-line client:
submit source files (or ``--stdin``) as one job and print the streamed
JSONL records.  ``python -m repro top`` is the daemon's live dashboard
(``--once --json`` for scripts).  ``check`` is an explicit alias for the
default one-file mode, where ``--stdin`` (or a ``-`` source) reads the
unit from stdin.

Exit status (all modes): 0 — no unstable code, 1 — warnings/unstable
findings reported (for ``fuzz``, any anomaly counts: diagnostics,
miscompiles, failed units, expectation mismatches; for ``cluster``,
diagnostics or failed units; for ``submit``, diagnostics or errored
units), 2 — the input could not be compiled or read (or the
campaign/corpus/daemon configuration was invalid), 130 — interrupted
(Ctrl-C or SIGTERM; engine-backed modes flush their JSONL stream first,
with the partial run summary marked ``"interrupted": true``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.solver.solver import DEFAULT_MAX_PROPAGATIONS


def _add_version(parser: argparse.ArgumentParser) -> None:
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="STACK reproduction: find optimization-unstable code "
                    "in a C-like source file.")
    _add_version(parser)
    parser.add_argument("source", nargs="?", default=None,
                        help="path to a C-like source file, or '-' to read "
                             "from stdin")
    parser.add_argument("--stdin", action="store_true",
                        help="read the translation unit from stdin "
                             "(equivalent to a '-' source)")
    parser.add_argument("--json", action="store_true",
                        help="emit the engine's JSONL unit record instead of "
                             "the human-readable report")
    parser.add_argument("--validate", action="store_true",
                        help="replay a concrete witness for every diagnostic "
                             "through the IR interpreter (stage 5)")
    parser.add_argument("--repair", action="store_true",
                        help="propose and verify patches for every "
                             "diagnostic (stage 6: template rewrites behind "
                             "the three-gate verifier)")
    parser.add_argument("--patch-out", metavar="PATH", default=None,
                        help="with --repair: write the emitted unified IR "
                             "diffs to PATH ('-' for stdout)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for the witness/repair replay environment "
                             "and the --diff differential runner "
                             "(default: 0)")
    parser.add_argument("--diff", action="store_true",
                        help="additionally run the seeded differential "
                             "optimizer campaign for this file against every "
                             "compiler profile and print the table")
    parser.add_argument("--max-propagations", type=int,
                        default=DEFAULT_MAX_PROPAGATIONS, metavar="N",
                        help="per-query SAT propagation budget "
                             f"(default: {DEFAULT_MAX_PROPAGATIONS})")
    parser.add_argument("--no-incremental", action="store_true",
                        help="solve every query from scratch instead of "
                             "batching into incremental contexts")
    parser.add_argument("--backend", metavar="NAME", default="builtin",
                        help="route solver queries through one named SAT "
                             "backend: builtin, pysat, or dimacs "
                             "(default: builtin, the in-process CDCL)")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record hierarchical spans for every stage and "
                             "solver query and write a Chrome trace-event "
                             "JSON (load in Perfetto / chrome://tracing; "
                             "docs/OBSERVABILITY.md)")
    parser.add_argument("--profile", action="store_true",
                        help="with --trace: additionally print the per-run "
                             "text profile (top spans + Figure-16 time "
                             "split) to stderr")
    parser.add_argument("--show-config", action="store_true",
                        help="print the active CheckerConfig before checking")
    return parser


def _write_patches(report, path: str) -> None:
    """Concatenate every emitted patch into one unified-diff stream."""
    chunks = []
    for bug in report.bugs:
        repair = bug.repair
        if repair is None or not repair.repaired or not repair.patch:
            continue
        chunks.append(f"# {bug.location}: {repair.template} — "
                      f"{repair.description}\n{repair.patch}")
    text = "\n".join(chunks) if chunks else "# no patches emitted\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Run a generative fuzzing campaign through the checker "
                    "pipeline (docs/FUZZ.md).")
    _add_version(parser)
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="campaign seed: determines every generated "
                             "program, witness replay, and differential run "
                             "(default: 0)")
    parser.add_argument("--budget", type=int, default=100, metavar="N",
                        help="number of programs to generate and check "
                             "(default: 100)")
    parser.add_argument("--reduce", action="store_true",
                        help="delta-debug every unstable finding to a "
                             "minimal reproducer")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the deterministic JSONL campaign stream "
                             "to PATH")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="engine worker processes (default: sequential; "
                             "results are identical either way)")
    parser.add_argument("--no-diff", action="store_true",
                        help="skip the per-program differential optimizer "
                             "run")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip the stage-5 witness replay for "
                             "diagnostics")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record spans across the campaign's engine "
                             "batches and write a Chrome trace-event JSON "
                             "(docs/OBSERVABILITY.md)")
    return parser


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    args = build_fuzz_parser().parse_args(argv)
    from repro.fuzz import FuzzConfig, run_fuzz_campaign

    try:
        result = run_fuzz_campaign(FuzzConfig(
            seed=args.seed, budget=args.budget, reduce=args.reduce,
            out=args.out, workers=args.workers,
            differential=not args.no_diff,
            validate_witnesses=not args.no_validate,
            trace=args.trace))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        message = "fuzz campaign interrupted; partial summary flushed"
        if args.out:
            message += f" to {args.out}"
        print(message, file=sys.stderr)
        return 130
    stats = result.stats
    print(f"fuzz campaign: seed {stats.seed}, {stats.programs} programs "
          f"({stats.minic_programs} MiniC, {stats.ir_programs} IR), "
          f"{stats.throughput:.1f} programs/s")
    print(f"  flagged {stats.flagged_programs} programs "
          f"({stats.diagnostics} diagnostics, "
          f"{stats.expectation_mismatches} expectation mismatches, "
          f"{stats.failed_units} failed units)")
    print(f"  witnesses: {stats.witnesses_confirmed} confirmed, "
          f"{stats.witnesses_unconfirmed} unconfirmed, "
          f"{stats.witnesses_inconclusive} inconclusive")
    if stats.diff_executions:
        print(f"  differential: {stats.diff_executions} executions, "
              f"{stats.diff_ub_justified} UB-justified divergences, "
              f"{stats.miscompiles} miscompiles")
    if args.reduce:
        print(f"  reduced: {stats.reduced_cases} minimal reproducers "
              f"({stats.reduction_checker_runs} checker re-runs)")
    if args.out:
        print(f"  JSONL stream: {args.out}")
    # Anomalies are findings too — a miscompile, a crashed unit, or a
    # verdict that contradicts the generator's expectation must not let
    # the campaign exit as if nothing were wrong.
    anomalies = (stats.diagnostics + stats.miscompiles + stats.failed_units
                 + stats.expectation_mismatches)
    return 1 if anomalies else 0


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Check a corpus with archive-scale structural "
                    "clustering dedup (docs/CLUSTER.md).")
    _add_version(parser)
    parser.add_argument("sources", nargs="*", metavar="FILE",
                        help="C-like source files forming the corpus")
    parser.add_argument("--synthetic", type=int, default=0, metavar="N",
                        help="add N snippet-template instances to the corpus "
                             "(the benchmark's Debian-archive stand-in)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="identifier seed for --synthetic rendering "
                             "(default: 0)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="engine worker processes for the representative "
                             "pass (default: sequential; verdicts are "
                             "identical either way)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSONL stream (unit records, cluster "
                             "records, run summary) to PATH")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="warm and flush the solver-query cache at PATH")
    parser.add_argument("--max-propagations", type=int,
                        default=DEFAULT_MAX_PROPAGATIONS, metavar="N",
                        help="per-query SAT propagation budget "
                             f"(default: {DEFAULT_MAX_PROPAGATIONS})")
    parser.add_argument("--no-cluster", action="store_true",
                        help="check the same corpus exhaustively instead "
                             "(A/B baseline)")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record spans for the representative pass and "
                             "write a Chrome trace-event JSON "
                             "(docs/OBSERVABILITY.md)")
    return parser


def cluster_main(argv: Optional[List[str]] = None) -> int:
    args = build_cluster_parser().parse_args(argv)
    from repro.cluster import synthetic_cluster_corpus
    from repro.engine.engine import CheckEngine, EngineConfig, \
        EngineInterrupted

    corpus = []
    for path in args.sources:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                corpus.append((path, handle.read()))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if args.synthetic:
        corpus.extend(synthetic_cluster_corpus(args.synthetic, seed=args.seed))
    if not corpus:
        print("error: empty corpus (pass source files or --synthetic N)",
              file=sys.stderr)
        return 2

    config = EngineConfig(
        workers=args.workers,
        checker=CheckerConfig(max_propagations=args.max_propagations),
        cluster=not args.no_cluster,
        cache_path=args.cache,
        results_path=args.out,
        trace_path=args.trace,
    )
    try:
        result = CheckEngine(config).check_corpus(corpus)
    except EngineInterrupted as exc:
        stats = exc.result.stats
        print(f"interrupted: {stats.units} of {len(corpus)} units checked; "
              "partial results flushed", file=sys.stderr)
        if args.out:
            print(f"  JSONL stream: {args.out} "
                  "(summary marked \"interrupted\": true)", file=sys.stderr)
        return 130
    stats = result.stats

    mode = "exhaustive" if args.no_cluster else "clustered"
    print(f"{mode} run: {stats.units} units, {stats.functions} functions, "
          f"{stats.diagnostics} diagnostics, {stats.wall_clock:.2f}s")
    if not args.no_cluster:
        print(f"  clusters: {stats.cluster_clusters} over "
              f"{stats.cluster_functions} functions; "
              f"{stats.cluster_propagated} propagated "
              f"({stats.cluster_confirmed} solver-confirmed, "
              f"{stats.cluster_fallbacks} fallbacks)")
    print(f"  solver: {stats.solver_queries} queries solved, "
          f"{stats.cache_hits} cache hits, {stats.timeouts} timeouts")
    if stats.failed_units:
        print(f"  failed units: {stats.failed_units}")
    if args.out:
        print(f"  JSONL stream: {args.out}")
    return 1 if stats.diagnostics or stats.failed_units else 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the always-on checking daemon: warm workers behind "
                    "a local socket, streaming JSONL results (docs/SERVE.md).")
    _add_version(parser)
    parser.add_argument("--socket", metavar="PATH",
                        default="repro-serve.sock",
                        help="Unix-domain socket to listen on "
                             "(default: repro-serve.sock)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="warm worker processes held resident "
                             "(default: 2)")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help="warm the shared solver-query cache from PATH "
                             "on start and flush it there on drain")
    parser.add_argument("--results-dir", metavar="DIR", default=None,
                        help="also write one <job>.jsonl result stream per "
                             "job under DIR")
    parser.add_argument("--max-propagations", type=int,
                        default=DEFAULT_MAX_PROPAGATIONS, metavar="N",
                        help="default per-query SAT propagation budget "
                             f"(default: {DEFAULT_MAX_PROPAGATIONS}; "
                             "jobs may override)")
    parser.add_argument("--max-queue", type=int, default=4096, metavar="N",
                        help="global bound on admitted-but-undispatched "
                             "units (default: 4096)")
    parser.add_argument("--quota", type=int, default=1024, metavar="N",
                        help="per-client bound on outstanding units "
                             "(default: 1024)")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="record server-lifetime spans (one subtree per "
                             "job) and write a Chrome trace-event JSON on "
                             "drain")
    parser.add_argument("--log", metavar="PATH", default=None,
                        help="structured JSONL event log (size-rotated; "
                             "docs/OBSERVABILITY.md)")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warn", "error"),
                        help="minimum level written to --log "
                             "(default: info)")
    parser.add_argument("--metrics-file", metavar="PATH", default=None,
                        help="atomically rewrite a Prometheus text-format "
                             "metrics snapshot at PATH for an external "
                             "scraper")
    parser.add_argument("--metrics-interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="seconds between --metrics-file rewrites "
                             "(default: 2.0)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log solver queries slower than MS "
                             "milliseconds as slow-query events")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="directory for flight-recorder post-mortem "
                             "dumps (default: next to --log, else next to "
                             "the socket)")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    from repro.serve import ServeConfig, ServeServer

    signals = {"drain": False, "reload": False, "dump": False}

    def _on_sigterm(_signum, _frame):
        signals["drain"] = True

    def _on_sighup(_signum, _frame):
        signals["drain"] = True
        signals["reload"] = True

    def _on_sigquit(_signum, _frame):
        signals["dump"] = True                # flight dump, keep running

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
        if hasattr(signal, "SIGHUP"):
            signal.signal(signal.SIGHUP, _on_sighup)
        if hasattr(signal, "SIGQUIT"):
            signal.signal(signal.SIGQUIT, _on_sigquit)
    except ValueError:
        pass                                  # not the main thread (tests)

    while True:                               # one iteration per SIGHUP reload
        config = ServeConfig(
            socket_path=args.socket, workers=args.workers,
            checker=CheckerConfig(max_propagations=args.max_propagations),
            cache_path=args.cache, results_dir=args.results_dir,
            max_queued_units=args.max_queue, client_quota=args.quota,
            trace_path=args.trace, log_path=args.log,
            log_level=args.log_level, metrics_path=args.metrics_file,
            metrics_interval=args.metrics_interval,
            slow_query_ms=args.slow_query_ms, flight_dir=args.flight_dir)
        server = ServeServer(config)
        try:
            server.start()
        except OSError as exc:
            print(f"error: cannot listen on {args.socket}: {exc}",
                  file=sys.stderr)
            return 2
        pids = " ".join(str(pid) for pid in server.worker_pids)
        print(f"serve: listening on {args.socket} "
              f"({args.workers} workers: {pids})", flush=True)
        while server.running:
            if signals["dump"]:
                signals["dump"] = False
                path = server.dump_flight(reason="SIGQUIT")
                print(f"serve: flight record dumped to {path}", flush=True)
            if signals["drain"]:
                signals["drain"] = False
                server.request_drain(reason="signal",
                                     reload=signals["reload"])
                signals["reload"] = False
            try:
                server.serve_forever(timeout=0.2)
            except KeyboardInterrupt:         # Ctrl-C drains gracefully too
                server.request_drain(reason="SIGINT")
        if not server.reload_requested:
            print("serve: drained, exiting", flush=True)
            return 0
        print("serve: drained, reloading", flush=True)


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a job to a running checking daemon and stream "
                    "its JSONL records to stdout (docs/SERVE.md).")
    _add_version(parser)
    parser.add_argument("sources", nargs="*", metavar="FILE",
                        help="C-like source files forming the job")
    parser.add_argument("--stdin", action="store_true",
                        help="additionally read one translation unit from "
                             "stdin")
    parser.add_argument("--socket", metavar="PATH",
                        default="repro-serve.sock",
                        help="daemon socket to connect to "
                             "(default: repro-serve.sock)")
    parser.add_argument("--priority", type=int, default=0, metavar="N",
                        help="job priority: higher dispatches first "
                             "(default: 0)")
    parser.add_argument("--name", metavar="NAME", default="repro-submit",
                        help="client name reported to the daemon")
    parser.add_argument("--max-propagations", type=int, default=None,
                        metavar="N",
                        help="per-query SAT propagation budget override "
                             "for this job")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also append every streamed record to PATH "
                             "(reproduces a batch run's results file)")
    parser.add_argument("--status", action="store_true",
                        help="print the daemon's status JSON and exit")
    parser.add_argument("--drain", action="store_true",
                        help="ask the daemon to drain and shut down, "
                             "then exit")
    return parser


def submit_main(argv: Optional[List[str]] = None) -> int:
    args = build_submit_parser().parse_args(argv)
    from repro.serve import ServeClient, ServeError, SubmitRejected

    try:
        client = ServeClient(args.socket, name=args.name)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.status:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.drain:
            client.drain()
            print("drain requested", file=sys.stderr)
            return 0
        units = []
        for path in args.sources:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    units.append((path, handle.read()))
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return 2
        if args.stdin:
            units.append(("<stdin>", sys.stdin.read()))
        if not units:
            print("error: empty job (pass source files or --stdin)",
                  file=sys.stderr)
            return 2
        checker = {"max_propagations": args.max_propagations} \
            if args.max_propagations is not None else None
        try:
            job = client.submit(units, priority=args.priority,
                                checker=checker)
        except SubmitRejected as exc:
            print(f"error: submission rejected ({exc.reason}): {exc.detail}",
                  file=sys.stderr)
            return 2
        out = open(args.out, "w", encoding="utf-8") if args.out else None
        findings = 0
        try:
            for record in job.records():
                line = json.dumps(record)
                print(line, flush=True)
                if out is not None:
                    out.write(line + "\n")
                if record.get("type") == "unit" and (
                        record.get("diagnostics") or record.get("error")):
                    findings += 1
        finally:
            if out is not None:
                out.close()
        return 1 if findings else 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live dashboard for a running checking daemon: queue "
                    "depth, per-worker state, warm-hit rate, latency "
                    "sparkline, recent events (docs/SERVE.md).")
    _add_version(parser)
    parser.add_argument("--socket", metavar="PATH",
                        default="repro-serve.sock",
                        help="daemon socket to connect to "
                             "(default: repro-serve.sock)")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="seconds between refreshes (default: 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit")
    parser.add_argument("--json", action="store_true",
                        help="with --once: print the raw status reply as "
                             "JSON (for scripts and CI)")
    return parser


def top_cli_main(argv: Optional[List[str]] = None) -> int:
    args = build_top_parser().parse_args(argv)
    from repro.serve.top import top_main

    return top_main(args)


def _raise_keyboard_interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])           # installs its own drain handlers
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:                        # not the main thread (tests)
        previous = None
    try:
        if argv and argv[0] == "fuzz":
            return fuzz_main(argv[1:])
        if argv and argv[0] == "cluster":
            return cluster_main(argv[1:])
        if argv and argv[0] == "submit":
            return submit_main(argv[1:])
        if argv and argv[0] == "top":
            return top_cli_main(argv[1:])
        if argv and argv[0] == "check":
            argv = argv[1:]
        return check_main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def check_main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.stdin or args.source == "-":
        source = sys.stdin.read()
        filename = "<stdin>"
    elif args.source is None:
        print("error: pass a source file (or --stdin)", file=sys.stderr)
        return 2
    else:
        try:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"error: cannot read {args.source}: {exc}", file=sys.stderr)
            return 2
        filename = args.source

    config = CheckerConfig(
        max_propagations=args.max_propagations,
        incremental=not args.no_incremental,
        validate_witnesses=args.validate,
        witness_seed=args.seed,
        repair=args.repair,
        backend=args.backend,
        trace=args.trace is not None,
    )
    if args.show_config:
        print(config.describe())

    tracer = None
    if args.trace is not None:
        from repro.obs.trace import Tracer, tracing

        tracer = Tracer(name="run")
    try:
        if tracer is not None:
            with tracing(tracer):
                report = check_source(source, filename=filename, config=config)
        else:
            report = check_source(source, filename=filename, config=config)
    except Exception as exc:                          # frontend rejection
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if tracer is not None:
        from repro.obs.chrometrace import write_chrome_trace
        from repro.obs.report import render_profile

        write_chrome_trace(args.trace, tracer.root,
                           metrics=tracer.metrics.snapshot()["counters"])
        if args.profile:
            print(render_profile(tracer.root, tracer.metrics),
                  file=sys.stderr)

    if args.json:
        from repro.engine.sink import report_to_dict

        print(json.dumps(report_to_dict(filename, report), indent=2))
    else:
        print(report.describe())

    if args.diff:
        from repro.api import compile_source
        from repro.exec.diff import run_differential

        # The checker inlines the module it analyzes; the differential
        # campaign runs on a fresh compile of the same source.  With
        # --json the table goes to stderr so stdout stays one parseable
        # record.
        module = compile_source(source, filename=filename)
        diff = run_differential([(filename, module)], seed=args.seed)
        stream = sys.stderr if args.json else sys.stdout
        print(file=stream)
        print(diff.render(), file=stream)
        for case in diff.miscompiles:
            print(case.describe(), file=stream)

    if args.repair and args.patch_out is not None:
        _write_patches(report, args.patch_out)

    return 1 if report.bugs else 0


if __name__ == "__main__":
    sys.exit(main())
