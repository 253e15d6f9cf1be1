"""Archive-scale clustering benchmark: verdict identity and wall-clock win.

The Debian prevalence study's workload (§6.5) is modelled by a synthetic
corpus that instantiates every snippet template many times under fresh
identifiers — 10 instances per template in the full run, for a corpus an
order of magnitude larger than the snippet suite itself.  The clustered
engine run must (a) produce **byte-identical verdicts** to the exhaustive
run, unit by unit, (b) never propagate a verdict that the per-member solver
gate did not confirm, and (c) beat the exhaustive run's wall clock at least
3×.  Both runs share one configuration apart from the ``cluster`` flag;
the query cache is disabled in both so the speedup measures structural
dedup alone, not verdict replay (bench_engine_scaling.py covers caching).
``--bench-fast`` shrinks the corpus for the CI smoke job and relaxes the
speedup floor to >1× (a loaded CI box plus a small corpus makes tight
timing ratios flaky).
"""

import time

from repro.cluster import synthetic_cluster_corpus
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import CheckEngine, EngineConfig


def _run(corpus, cluster, workers):
    config = EngineConfig(workers=workers, cluster=cluster,
                          cache_enabled=False)
    started = time.monotonic()
    result = CheckEngine(config).check_corpus(corpus)
    return result, time.monotonic() - started


def test_cluster_verdict_identity_and_speedup(once, fast_mode, engine_workers,
                                              record_bench):
    templates = len(SNIPPETS) + len(STABLE_SNIPPETS)
    instances = 4 * templates if fast_mode else 10 * templates
    corpus = synthetic_cluster_corpus(instances, seed=0)
    if not fast_mode:
        # The tentpole claim is archive scale: ≥10× the snippet suite.
        assert len(corpus) >= 10 * templates

    def compare():
        clustered, clustered_wall = _run(corpus, True, engine_workers)
        exhaustive, exhaustive_wall = _run(corpus, False, engine_workers)
        return clustered, clustered_wall, exhaustive, exhaustive_wall

    clustered, clustered_wall, exhaustive, exhaustive_wall = once(compare)

    # (a) Verdict identity, unit by unit, against the exhaustive ground truth.
    clustered_verdicts = [(r.name, report_signature(r.report))
                          for r in clustered.results]
    exhaustive_verdicts = [(r.name, report_signature(r.report))
                           for r in exhaustive.results]
    assert clustered_verdicts == exhaustive_verdicts
    assert clustered.stats.failed_units == 0
    assert exhaustive.stats.failed_units == 0

    # (b) Zero unconfirmed propagations: every copied verdict passed the
    # per-member solver gate, and nothing fell back silently.
    stats = clustered.stats
    assert stats.cluster_propagated == stats.cluster_confirmed
    assert stats.cluster_fallbacks == 0
    assert stats.cluster_propagated > 0
    assert stats.cluster_clusters < stats.cluster_functions

    record_bench("cluster", {
        "clustered_wall": round(clustered_wall, 6),
        "clusters": stats.cluster_clusters,
        "confirmed": stats.cluster_confirmed,
        "corpus_units": len(corpus),
        "diagnostics": stats.diagnostics,
        "exhaustive_wall": round(exhaustive_wall, 6),
        "fallbacks": stats.cluster_fallbacks,
        "propagated": stats.cluster_propagated,
        "speedup": round(exhaustive_wall / clustered_wall, 4),
        "workers": engine_workers,
    })

    # (c) The wall-clock win that justifies the subsystem.
    speedup = exhaustive_wall / clustered_wall
    floor = 1.0 if fast_mode else 3.0
    assert speedup > floor, (
        f"clustered {clustered_wall:.2f}s vs exhaustive "
        f"{exhaustive_wall:.2f}s — only {speedup:.2f}x")

    print()
    print(f"corpus: {len(corpus)} units ({templates} templates), "
          f"{engine_workers} workers")
    print(f"clustered:  {clustered_wall:.2f}s — {stats.cluster_clusters} "
          f"clusters, {stats.cluster_propagated} propagated "
          f"({stats.cluster_confirmed} confirmed, "
          f"{stats.cluster_fallbacks} fallbacks)")
    print(f"exhaustive: {exhaustive_wall:.2f}s — "
          f"{exhaustive.stats.functions} functions solved individually")
    print(f"speedup: {speedup:.2f}x, identical verdicts "
          f"({stats.diagnostics} diagnostics)")


def test_cluster_deterministic_across_workers(once, fast_mode):
    """Cluster records and verdicts do not depend on the worker count."""
    instances = 28 if fast_mode else 56
    corpus = synthetic_cluster_corpus(instances, seed=0)

    def run(workers):
        result, _wall = _run(corpus, True, workers)
        return ([(r.name, report_signature(r.report)) for r in result.results],
                result.stats.cluster_clusters, result.stats.cluster_propagated)

    def compare():
        return run(0), run(2)

    sequential, parallel = once(compare)
    assert sequential == parallel
