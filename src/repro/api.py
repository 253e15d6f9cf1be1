"""High-level convenience API.

These helpers tie the whole pipeline together the way ``stack-build`` does in
the paper (Figure 7): compile C-like source to IR, run the checker, and hand
back a :class:`~repro.core.report.BugReport`.

Typical use::

    from repro import check_source

    report = check_source(POINTER_OVERFLOW_SNIPPET)
    for bug in report.bugs:
        print(bug.describe())

Checking is *incremental* by default: the solver queries for one candidate
share an assumption-based solver context, and learned clauses plus
bit-blasted encodings persist per function (docs/SOLVER.md).  Pass
``CheckerConfig(incremental=False)`` to any helper here to solve every
query from scratch instead; verdicts are identical in both modes, and the
per-function reports carry the solver counters (contexts, CDCL calls,
restarts, blasted clauses; ``repro.core.report.SOLVER_COUNTERS``) either
way.

For corpus-scale work the engine entry points fan translation units out over
a worker pool with a shared solver-query cache layered above the
incremental solver::

    from repro import check_corpus

    result = check_corpus([("unit0", SOURCE0), ("unit1", SOURCE1)], workers=4)
    print(result.stats.as_dict())

Pass ``CheckerConfig(validate_witnesses=True)`` to any helper to run the
stage-5 concrete validation: each diagnostic's solver model is replayed
through the IR interpreter before and after the UB-exploiting optimizer,
and ``bug.witness`` records whether the warning was concretely confirmed
(docs/EXEC.md).

Pass ``CheckerConfig(repair=True)`` to also run the stage-6 auto-repair:
``bug.repair`` then carries the template rewrite that survived the
three-gate verifier (solver equivalence on UB-free inputs, stability
re-check under every compiler profile, witness replay) as a unified IR
diff, or the per-gate reasons no candidate did (docs/REPAIR.md).

To exercise the whole pipeline on programs nobody wrote by hand, the
generative fuzzing subsystem fans seeded MiniC/IR programs through these
same entry points (:func:`repro.fuzz.run_fuzz_campaign`, ``python -m repro
fuzz``, docs/FUZZ.md).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from repro.core.checker import CheckerConfig, StackChecker
from repro.core.report import BugReport, FunctionReport
from repro.frontend.parser import parse
from repro.frontend.preprocessor import Preprocessor
from repro.frontend.sema import analyze
from repro.ir.function import Function, Module
from repro.lower.lowering import lower_translation_unit


def compile_source(source: str, filename: str = "<input>",
                   promote: bool = True,
                   preprocessor: Optional[Preprocessor] = None) -> Module:
    """Compile MiniC source text into an IR module (frontend + lowering)."""
    from repro.obs.trace import span

    with span("stage1.parse"):
        tree = parse(source, filename, preprocessor=preprocessor)
    with span("stage1.analyze"):
        unit = analyze(tree)
    with span("stage1.lower"):
        return lower_translation_unit(unit, module_name=filename,
                                      promote=promote)


def check_module(module: Module, config: Optional[CheckerConfig] = None,
                 cache: Optional["SolverQueryCache"] = None) -> BugReport:
    """Run the STACK checker over an already-compiled IR module."""
    checker = StackChecker(config, query_cache=cache)
    return checker.check_module(module)


def check_function(function: Function,
                   config: Optional[CheckerConfig] = None,
                   cache: Optional["SolverQueryCache"] = None) -> FunctionReport:
    """Run the STACK checker over a single IR function."""
    checker = StackChecker(config, query_cache=cache)
    return checker.check_function(function)


def check_source(source: str, filename: str = "<input>",
                 config: Optional[CheckerConfig] = None,
                 cache: Optional["SolverQueryCache"] = None) -> BugReport:
    """Compile ``source`` and check it for unstable code in one call."""
    module = compile_source(source, filename)
    return check_module(module, config, cache=cache)


# -- corpus-scale entry points (repro.engine) ---------------------------------------


def _engine(config: Optional[CheckerConfig], workers: int,
            cache_path: Optional[str], results_path: Optional[str],
            engine_config: Optional["EngineConfig"]) -> "CheckEngine":
    from repro.engine.engine import CheckEngine, EngineConfig

    if engine_config is None:
        engine_config = EngineConfig(
            workers=workers,
            checker=config if config is not None else CheckerConfig(),
            cache_path=cache_path,
            results_path=results_path,
        )
    return CheckEngine(engine_config)


def check_corpus(sources: Iterable[Union[Tuple[str, str], str, "WorkUnit"]],
                 config: Optional[CheckerConfig] = None,
                 workers: int = 0,
                 cache_path: Optional[str] = None,
                 results_path: Optional[str] = None,
                 engine_config: Optional["EngineConfig"] = None) -> "EngineResult":
    """Check a corpus of translation units through the engine.

    ``sources`` yields ``(name, source)`` pairs (or bare source strings /
    prepared :class:`~repro.engine.workunit.WorkUnit` objects).  With
    ``workers > 1`` units are checked by a process pool; verdicts are shared
    through the solver-query cache and, when ``cache_path`` is given,
    persisted so a rerun starts warm.  Pass ``engine_config`` instead for
    full control over every knob (see docs/ENGINE.md); with
    ``engine_config=EngineConfig(cluster=True)`` the corpus is deduplicated
    by structural clustering first: one representative per cluster of
    structurally identical functions is solved and confirmed members
    receive the propagated verdict (docs/CLUSTER.md).
    """
    engine = _engine(config, workers, cache_path, results_path, engine_config)
    return engine.check_corpus(sources)


def check_modules_parallel(modules: Iterable[Module],
                           config: Optional[CheckerConfig] = None,
                           workers: int = 2,
                           cache_path: Optional[str] = None,
                           results_path: Optional[str] = None,
                           engine_config: Optional["EngineConfig"] = None,
                           ) -> "EngineResult":
    """Check already-lowered IR modules through the engine worker pool."""
    engine = _engine(config, workers, cache_path, results_path, engine_config)
    return engine.check_modules(modules)
