"""Determinism contract of clustered runs (ISSUE satellite: workers 1/2/4).

Cluster assignments, propagated verdicts, and the JSONL cluster records
must be byte-identical whatever the worker count and across repeated runs
of the same corpus.  Clustering happens in the parent from submission
order, representatives are solved deterministically, and unit records are
streamed in submission order regardless of which worker finished first —
these tests pin all three properties down at the file-byte level.
"""

import json

import pytest

from repro.cluster import synthetic_cluster_corpus
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS
from repro.engine.engine import CheckEngine, EngineConfig


def _clustered_run(corpus, workers, path):
    engine = CheckEngine(EngineConfig(
        workers=workers, cluster=True, cache_enabled=False, results_path=str(path)))
    result = engine.check_corpus(corpus)
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    cluster_lines = [line for line, record in zip(lines, records)
                     if record["type"] == "cluster"]
    verdicts = [(unit.name, report_signature(unit.report))
                for unit in result.results]
    stable_unit_fields = [
        (record["unit"], record["error"],
         [(f["function"], f["diagnostics"], f["propagated"])
          for f in record["functions"]])
        for record in records if record["type"] == "unit"]
    return cluster_lines, verdicts, stable_unit_fields, result.stats


@pytest.fixture(scope="module")
def corpus():
    # Three instances of six templates: every cluster propagates twice.
    return synthetic_cluster_corpus(18, seed=0, snippets=SNIPPETS[:6])


def test_byte_identical_across_worker_counts(corpus, tmp_path):
    runs = {}
    for workers in (1, 2, 4):
        runs[workers] = _clustered_run(
            corpus, workers, tmp_path / f"w{workers}.jsonl")
    baseline = runs[1]
    for workers in (2, 4):
        cluster_lines, verdicts, unit_fields, stats = runs[workers]
        # The raw JSONL cluster record lines — not parsed equivalents —
        # must match: byte-identical is the contract.
        assert cluster_lines == baseline[0], f"workers={workers}"
        assert verdicts == baseline[1], f"workers={workers}"
        assert unit_fields == baseline[2], f"workers={workers}"
        assert stats.cluster_propagated == baseline[3].cluster_propagated
        assert stats.cluster_fallbacks == baseline[3].cluster_fallbacks == 0


def test_byte_identical_across_repeated_runs(corpus, tmp_path):
    first = _clustered_run(corpus, 2, tmp_path / "run1.jsonl")
    second = _clustered_run(corpus, 2, tmp_path / "run2.jsonl")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_seed_changes_names_but_not_structure(tmp_path):
    # Different identifier seeds render different function names, but the
    # structural story — cluster count, sizes, propagations, diagnostics
    # per cluster — is exactly the same.
    def shape(seed):
        corpus = synthetic_cluster_corpus(12, seed=seed,
                                          snippets=SNIPPETS[:4])
        lines, _verdicts, _units, stats = _clustered_run(
            corpus, 1, tmp_path / f"seed{seed}.jsonl")
        records = [json.loads(line) for line in lines]
        return ([(r["size"], r["propagated"], r["fallbacks"],
                  r["diagnostics"]) for r in records],
                stats.cluster_clusters)

    assert shape(0) == shape(7)
