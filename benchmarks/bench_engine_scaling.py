"""Engine scaling smoke benchmark: sequential vs. multi-worker wall-clock.

A CI-friendly target that records how the corpus-checking engine behaves as
workers are added, on a corpus small enough to finish in seconds.  Both runs
land in the ``BENCH_*`` trajectory so regressions in either path show up;
the shape assertion is result equivalence, not a speedup (a 2-worker pool
on a loaded CI box may not beat a warm sequential loop at this corpus size).
A third target compares incremental solver contexts against scratch solving
on the engine corpus (same verdicts, fewer bit-blasted clauses).
"""

from repro.api import check_corpus
from repro.core.checker import CheckerConfig
from repro.core.report import report_signature as _signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import EngineConfig


def _corpus():
    """A small mixed corpus: every other unstable template plus stable padding."""
    snippets = SNIPPETS[::2] + STABLE_SNIPPETS[::2]
    return [(s.name, s.render("scale")) for s in snippets]


def test_engine_sequential(once):
    result = once(check_corpus, _corpus(), workers=0)
    assert result.stats.units == len(_corpus())
    assert result.stats.failed_units == 0
    assert result.stats.diagnostics > 0
    print()
    print(f"sequential: {result.stats.as_dict()}")


def test_engine_parallel(once, engine_workers):
    # --engine-workers 0/1 forces this benchmark sequential too (CI escape
    # hatch for boxes where forking a pool is unavailable or too slow).
    workers = engine_workers if engine_workers > 1 else 0
    result = once(check_corpus, _corpus(), workers=workers)
    assert result.stats.units == len(_corpus())
    assert result.stats.failed_units == 0
    # Parallel fan-out must not change what the checker reports.
    assert _signature(result) == _signature(check_corpus(_corpus(), workers=0))
    print()
    print(f"{workers} workers: {result.stats.as_dict()}")


def test_engine_incremental_vs_scratch(once):
    def run(incremental):
        config = CheckerConfig(incremental=incremental)
        engine_config = EngineConfig(workers=0, checker=config,
                                     cache_enabled=False)
        return check_corpus(_corpus(), engine_config=engine_config)

    def compare():
        return run(True), run(False)

    incremental, scratch = once(compare)
    assert _signature(incremental) == _signature(scratch)
    assert incremental.stats.blasted_clauses < scratch.stats.blasted_clauses
    assert incremental.stats.restarts <= scratch.stats.restarts
    print()
    print(f"incremental: {incremental.stats.as_dict()}")
    print(f"scratch:     {scratch.stats.as_dict()}")
