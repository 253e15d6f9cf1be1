"""Figure 16: checker performance on scaled Kerberos/Postgres/Linux corpora.

The analysis phase runs through the parallel corpus-checking engine
(``repro.engine``); ``--engine-workers`` controls the fan-out.  The second
benchmark compares incremental solver contexts against scratch solving on
the same workload: verdicts must be identical, while the solver-level work
(bit-blasted clauses, CDCL restarts) must drop.
"""

from repro.api import check_corpus
from repro.core.checker import CheckerConfig
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS
from repro.engine.engine import EngineConfig
from repro.experiments.fig16 import run_figure16


def test_figure16_performance(once, engine_workers, record_bench):
    result = once(run_figure16, scale=0.004, workers=engine_workers)
    print()
    print(result.render())

    record_bench("fig16", {
        m.system: {
            "analysis_time": round(m.analysis_time, 6),
            "build_time": round(m.build_time, 6),
            "cache_hits": m.cache_hits,
            "files": m.files,
            "queries": m.queries,
            "timeouts": m.timeouts,
        }
        for m in result.measurements
    })

    by_name = {m.system: m for m in result.measurements}
    kerberos = by_name["Kerberos"]
    postgres = by_name["Postgres"]
    linux = by_name["Linux kernel"]

    # Shape of Figure 16: Linux is by far the largest system, and the query
    # count scales with corpus size.
    assert linux.files > postgres.files >= kerberos.files
    assert linux.queries > postgres.queries
    assert linux.queries > kerberos.queries
    # Timeouts stay a small fraction of queries (the paper reports < 0.5%).
    for measurement in result.measurements:
        assert measurement.timeout_fraction < 0.05


def _run_mode(incremental: bool):
    """Check every unstable snippet template in one solving mode.

    The cache is disabled so the comparison measures solver work, not cache
    luck; the propagation budget does not depend on CI load.
    """
    corpus = [(s.name, s.render("fig16cmp")) for s in SNIPPETS]
    config = CheckerConfig(incremental=incremental)
    engine_config = EngineConfig(workers=0, checker=config, cache_enabled=False)
    return check_corpus(corpus, engine_config=engine_config)


def test_figure16_incremental_vs_scratch(once):
    def compare():
        return _run_mode(incremental=True), _run_mode(incremental=False)

    incremental, scratch = once(compare)
    print()
    for name, run in (("incremental", incremental), ("scratch", scratch)):
        s = run.stats
        print(f"{name:12s} sat_calls={s.sat_calls} restarts={s.restarts} "
              f"blasted_clauses={s.blasted_clauses} "
              f"solver_time={s.solver_time:.2f}s")

    # Incremental contexts must not change what the checker reports ...
    assert report_signature(incremental) == report_signature(scratch)
    assert incremental.stats.timeouts == scratch.stats.timeouts == 0
    # ... while doing measurably less solver work on the same workload:
    # shared base terms and memoized bit-blasting cut the CNF volume, and
    # retained learned clauses keep CDCL restarts no worse.
    assert incremental.stats.blasted_clauses < scratch.stats.blasted_clauses
    assert incremental.stats.restarts <= scratch.stats.restarts
    assert (incremental.stats.restarts + incremental.stats.blasted_clauses
            < scratch.stats.restarts + scratch.stats.blasted_clauses)
