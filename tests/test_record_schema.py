"""The JSONL record layout, pinned key path by key path (docs/ENGINE.md).

The snippet corpus goes through the engine twice: once with the cache off
and witness replay plus repair on, and once clustered and traced with an
in-memory cache, with renamed copies of a few snippets so that clustering
propagates verdicts.  A fixed-seed fuzz campaign adds its ``fuzz-run``
summary.  Every ``unit``, function, ``run``, ``cluster`` and ``fuzz-run``
record must have exactly the ordered, nested key paths below, and the
traced run must emit exactly the listed ``run.*`` metric names.  A counter
that is added, dropped, renamed or moved changes one of these lists.

Key paths join dictionary keys with ``.``; ``[]`` stands for the elements
of a list.  Values that are not part of the record schema proper (the
config snapshot, unit ``meta``, per-diagnostic witness and repair reports,
the fuzz campaign's per-scenario rows) are pinned by their key only; the
config snapshots' setting names are pinned separately, as sorted key sets,
so that adding or dropping a setting is one reviewed change here.
"""

import json

import pytest

from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import CheckEngine, EngineConfig
from repro.fuzz.campaign import FuzzConfig, run_fuzz_campaign

#: Paths whose children are not pinned here.
OPAQUE = frozenset({"meta", "config", "diagnostics[].witness",
                    "diagnostics[].repair", "by_scenario"})


def key_paths(value, prefix=""):
    """Ordered key paths of a JSON value; list elements share one path."""
    paths = []
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            if path not in OPAQUE:
                paths.extend(key_paths(child, path))
    elif isinstance(value, list):
        for child in value:
            for path in key_paths(child, prefix + "[]"):
                if path not in paths:
                    paths.append(path)
    return paths


SOLVER = ["contexts", "sat_calls", "restarts", "blasted_clauses",
          "solver_time", "oracle_sat", "oracle_unsat"]
WITNESSES = ["confirmed", "unconfirmed", "inconclusive", "witness_time"]
REPAIR = ["attempted", "repaired", "rejected", "no_template",
          "gate_rejections", "gate_rejections.equivalence",
          "gate_rejections.recheck", "gate_rejections.replay", "repair_time"]


def nested(prefix, keys):
    return [prefix] + [f"{prefix}.{key}" for key in keys]


FUNCTION_PATHS = (
    ["function", "diagnostics", "propagated", "queries", "cache_hits",
     "timeouts"] + SOLVER + ["analysis_time"]
    + nested("witnesses", WITNESSES) + nested("repair", REPAIR))

DIAGNOSTIC_PATHS = ["function", "location", "algorithm", "message",
                    "fragment", "replacement", "ub_kinds", "classification",
                    "witness", "repair"]

UNIT_KEYS = (
    ["type", "unit", "module", "error", "meta", "functions", "diagnostics",
     "queries", "cache_hits", "timeouts"]
    + SOLVER
    + ["analysis_time", "witnesses_confirmed", "witnesses_unconfirmed",
       "witnesses_inconclusive", "witness_time", "repairs_attempted",
       "repairs_succeeded", "repairs_rejected", "repairs_no_template",
       "repair_time"])

CLUSTER = ["functions", "clusters", "propagated", "confirmed", "fallbacks",
           "cluster_time"]

RUN_PATHS = (
    ["type", "units", "failed_units", "functions", "diagnostics", "queries",
     "solver_queries", "cache_hits", "timeouts", "workers", "wall_clock",
     "analysis_time"]
    + nested("solver", SOLVER) + nested("witnesses", WITNESSES)
    + nested("repair", REPAIR) + nested("cluster", CLUSTER)
    + ["version", "config"])

CACHE_PATHS = nested("cache", ["entries", "hits", "misses", "hit_rate"])

# ``cluster`` and ``fuzz-run`` records are written with sorted keys.
CLUSTER_RECORD_PATHS = ["diagnostics", "fallbacks", "fingerprint", "index",
                        "members", "propagated", "representative", "size",
                        "type"]

FUZZ_RUN_PATHS = (
    ["by_scenario", "config", "diagnostics"]
    + nested("diff", ["agree", "executions", "inconclusive", "miscompile",
                      "ub_justified"])
    + ["expectation_mismatches", "expected_unstable", "failed_units",
       "flagged_programs", "ir_programs", "minic_programs", "programs",
       "reduced_cases", "reduction_checker_runs", "seed", "type", "version"]
    + nested("witnesses", ["confirmed", "inconclusive", "unconfirmed"]))

#: Setting names of the run record's ``config.checker`` and
#: ``config.engine``, and of the ``fuzz-run`` record's ``config``.
CHECKER_SETTINGS = ["backend", "classify", "incremental", "inline",
                    "max_propagations", "minimize_ub_sets", "repair",
                    "slow_query_ms", "trace", "validate_witnesses",
                    "witness_seed"]
ENGINE_SETTINGS = ["cache_enabled", "cluster", "workers"]
FUZZ_SETTINGS = ["budget", "differential", "reduce", "repair", "scenarios",
                 "seed", "validate_witnesses"]

RUN_METRICS = sorted(
    f"run.{name}" for name in
    ["units", "failed_units", "functions", "diagnostics", "queries",
     "solver_queries", "cache_hits", "timeouts", "workers", "wall_clock",
     "analysis_time", "contexts", "sat_calls",
     "restarts", "blasted_clauses", "solver_time", "oracle_sat",
     "oracle_unsat", "witnesses_confirmed", "witnesses_unconfirmed",
     "witnesses_inconclusive", "witness_time", "repairs_attempted",
     "repairs_succeeded", "repairs_rejected", "repairs_no_template",
     "repair_gate_equivalence_rejects", "repair_gate_recheck_rejects",
     "repair_gate_replay_rejects", "repair_time", "cluster_functions",
     "cluster_clusters", "cluster_propagated", "cluster_confirmed",
     "cluster_fallbacks", "cluster_time"])

UNITS = [(snippet.name, snippet.render("v"))
         for snippet in SNIPPETS + STABLE_SNIPPETS]
#: Renamed copies that clustering folds onto their originals.
COPIES = [(snippet.name + "_copy", snippet.render("w"))
          for snippet in SNIPPETS[:4]]


def _records(path):
    with open(path, encoding="utf-8") as stream:
        return [json.loads(line) for line in stream]


def _by_type(records, kind):
    return [record for record in records if record["type"] == kind]


@pytest.fixture(scope="module")
def repair_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema") / "repair.jsonl"
    CheckEngine(EngineConfig(
        checker=CheckerConfig(validate_witnesses=True, repair=True),
        cache_enabled=False, results_path=str(path))).check_corpus(UNITS)
    return _records(path)


@pytest.fixture(scope="module")
def clustered_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema") / "clustered.jsonl"
    CheckEngine(EngineConfig(
        checker=CheckerConfig(trace=True), cluster=True,
        results_path=str(path))).check_corpus(UNITS + COPIES)
    return _records(path)


@pytest.fixture(scope="module", params=["repair", "clustered"])
def run_records(request, repair_run, clustered_run):
    return {"repair": repair_run, "clustered": clustered_run}[request.param]


def test_unit_records(run_records):
    units = _by_type(run_records, "unit")
    assert len(units) >= len(UNITS)
    for record in units:
        assert list(record) == UNIT_KEYS, record["unit"]


def test_function_records(run_records):
    functions = [function for record in _by_type(run_records, "unit")
                 for function in record["functions"]]
    assert functions
    for function in functions:
        assert key_paths(function) == FUNCTION_PATHS, function["function"]


def test_diagnostic_entries(repair_run):
    diagnostics = [diagnostic for record in _by_type(repair_run, "unit")
                   for diagnostic in record["diagnostics"]]
    assert diagnostics
    for diagnostic in diagnostics:
        assert list(diagnostic) == DIAGNOSTIC_PATHS


def test_run_record_without_cache(repair_run):
    (run,) = _by_type(repair_run, "run")
    assert key_paths(run) == RUN_PATHS
    assert run["repair"]["attempted"] > 0
    assert run["witnesses"]["confirmed"] > 0


def test_run_record_with_cache(clustered_run):
    (run,) = _by_type(clustered_run, "run")
    assert key_paths(run) == RUN_PATHS + CACHE_PATHS
    assert run["cluster"]["propagated"] > 0


def test_run_record_settings(run_records):
    (run,) = _by_type(run_records, "run")
    assert sorted(run["config"]) == ["checker", "engine"]
    assert sorted(run["config"]["checker"]) == CHECKER_SETTINGS
    assert sorted(run["config"]["engine"]) == ENGINE_SETTINGS


def test_cluster_records(clustered_run):
    clusters = _by_type(clustered_run, "cluster")
    assert clusters
    for record in clusters:
        assert key_paths(record) == CLUSTER_RECORD_PATHS


def test_run_metric_names(clustered_run):
    names = sorted(record["name"] for record in _by_type(clustered_run,
                                                         "metric")
                   if record["name"].startswith("run."))
    assert names == RUN_METRICS


def test_fuzz_run_summary(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    run_fuzz_campaign(FuzzConfig(seed=5, budget=4, out=str(path)))
    (summary,) = _by_type(_records(path), "fuzz-run")
    assert key_paths(summary) == FUZZ_RUN_PATHS
    assert sorted(summary["config"]) == FUZZ_SETTINGS
