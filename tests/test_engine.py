"""Tests for the parallel corpus-checking engine (repro.engine).

Covers the acceptance surface of the engine PR: content-addressed cache
hit/miss and budget semantics, disk round-trip of the cache, parallel vs.
sequential result equivalence over the built-in snippet corpus, warm-cache
reruns issuing strictly fewer solver queries, one per-query budget from
every entry point, the JSONL result sink, and the CheckerConfig.describe()
helper.
"""

import dataclasses
import json
import os

import pytest

from repro.api import check_corpus, check_source
from repro.core.checker import CheckerConfig
from repro.core.report import diagnostic_signature, report_signature
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS, snippet_by_name
from repro.engine.cache import (
    SolverQueryCache,
    VERDICT_SAT,
    VERDICT_UNKNOWN,
    VERDICT_UNSAT,
    canonical_query_key,
)
from repro.engine.engine import CheckEngine, EngineConfig
from repro.engine.workunit import WorkUnit, check_work_unit
from repro.solver.terms import TermManager


def corpus_units(suffix="eq"):
    """The built-in snippet corpus as (name, source) work units."""
    return [(s.name, s.render(suffix)) for s in SNIPPETS + STABLE_SNIPPETS]


def diagnostics_signature(result):
    """Everything that identifies a diagnostic, including its minimal UB set."""
    out = []
    for report in result.reports:
        out.extend(diagnostic_signature(d) for d in report.bugs)
    return out


# -- shared runs over the built-in corpus (computed once per module) -----------------


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("engine") / "cache.jsonl")


@pytest.fixture(scope="module")
def cold_run(cache_file, tmp_path_factory):
    results = str(tmp_path_factory.mktemp("engine-results") / "results.jsonl")
    result = check_corpus(corpus_units(), workers=0,
                          cache_path=cache_file, results_path=results)
    result._results_path = results
    return result


@pytest.fixture(scope="module")
def parallel_run():
    return check_corpus(corpus_units(), workers=2)


@pytest.fixture(scope="module")
def parallel_rerun():
    return check_corpus(corpus_units(), workers=2)


@pytest.fixture(scope="module")
def warm_run(cache_file, cold_run):
    return check_corpus(corpus_units(), workers=2, cache_path=cache_file)


# -- canonical query keys -------------------------------------------------------------


def test_canonical_key_alpha_renames_variables():
    mgr = TermManager()
    a = mgr.bvadd(mgr.bv_var("f.arg.x", 32), mgr.bv_var("f.arg.y", 32))
    b = mgr.bvadd(mgr.bv_var("g.arg.p", 32), mgr.bv_var("g.arg.q", 32))
    zero = mgr.bv_const(0, 32)
    assert canonical_query_key([mgr.eq(a, zero)]) == \
        canonical_query_key([mgr.eq(b, zero)])


def test_canonical_key_distinguishes_structure():
    mgr = TermManager()
    x = mgr.bv_var("x", 32)
    y = mgr.bv_var("y", 32)
    zero = mgr.bv_const(0, 32)
    add = canonical_query_key([mgr.eq(mgr.bvadd(x, y), zero)])
    sub = canonical_query_key([mgr.eq(mgr.bvsub(x, y), zero)])
    const = canonical_query_key([mgr.eq(mgr.bvadd(x, mgr.bv_const(1, 32)), zero)])
    assert len({add, sub, const}) == 3


def test_canonical_key_is_width_sensitive():
    mgr = TermManager()
    k32 = canonical_query_key([mgr.eq(mgr.bv_var("x", 32), mgr.bv_const(0, 32))])
    k64 = canonical_query_key([mgr.eq(mgr.bv_var("x", 64), mgr.bv_const(0, 64))])
    assert k32 != k64


def test_canonical_key_ignores_variable_creation_order():
    # Regression: commutative operands are ordered by term id, i.e. by
    # creation order, so two encodings of the same function that merely
    # *introduced* variables in a different order used to produce different
    # keys.  The key must depend on structure alone.
    def key(first, second):
        mgr = TermManager()
        a = mgr.bv_var(first, 32)
        b = mgr.bv_var(second, 32)
        x, y = (a, b) if first == "x" else (b, a)
        query = mgr.eq(mgr.bvsub(mgr.bvadd(x, y), x), mgr.bv_const(0, 32))
        return canonical_query_key([query])

    assert key("x", "y") == key("y", "x")


def test_canonical_key_ignores_commutative_order_with_distinct_shapes():
    # The subterms must be told apart structurally (sext of different
    # sources), not by name or age — one refinement round is not enough for
    # this shape, so it pins the iterative coloring.
    def key(order):
        mgr = TermManager()
        a = mgr.sext(mgr.bv_var("a", 8), 24)
        b = mgr.sext(mgr.bv_var("b", 16), 16)
        wide_a = mgr.bvadd(a, mgr.bv_const(1, 32))
        operands = (wide_a, b) if order else (b, wide_a)
        return canonical_query_key([mgr.eq(mgr.bvadd(*operands),
                                           mgr.bv_const(0, 32))])

    assert key(True) == key(False)


def test_alpha_renamed_functions_share_cache_entries():
    # End to end: checking two instances of one snippet template must
    # replay every verdict of the first instance from the cache.
    cache = SolverQueryCache()
    config = CheckerConfig()
    first = check_work_unit(
        WorkUnit(name="a", source=SNIPPETS[0].render("a")), config,
        cache=cache, drain_cache=False)
    misses_after_first = cache.misses
    second = check_work_unit(
        WorkUnit(name="b", source=SNIPPETS[0].render("b")), config,
        cache=cache, drain_cache=False)
    assert cache.misses == misses_after_first     # no new solver work at all
    assert sum(fr.cache_hits for fr in second.report.functions) == \
        sum(fr.queries for fr in second.report.functions)
    # Same verdicts modulo the renamed identity (function name, filename).
    assert [sig[2:] for sig in report_signature(first.report)] == \
        [sig[2:] for sig in report_signature(second.report)]


# -- cache semantics ------------------------------------------------------------------


def test_cache_hit_miss_counters():
    cache = SolverQueryCache()
    assert cache.lookup("k1") is None
    cache.store("k1", VERDICT_UNSAT, max_propagations=100)
    assert cache.lookup("k1") == VERDICT_UNSAT
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_cache_unknown_is_budget_qualified():
    cache = SolverQueryCache()
    cache.store("k", VERDICT_UNKNOWN, max_propagations=100)
    # A larger requested budget must re-solve rather than replay the unknown.
    assert cache.lookup("k", max_propagations=1000) is None
    assert cache.lookup("k", max_propagations=None) is None
    # An equal-or-smaller budget can reuse it.
    assert cache.lookup("k", max_propagations=100) == VERDICT_UNKNOWN
    assert cache.lookup("k", max_propagations=50) == VERDICT_UNKNOWN
    # Definitive verdicts ignore the budget entirely.
    cache.store("k2", VERDICT_SAT, max_propagations=1)
    assert cache.lookup("k2", max_propagations=None) == VERDICT_SAT


def test_cache_never_downgrades_definitive_verdicts():
    cache = SolverQueryCache()
    cache.store("k", VERDICT_UNSAT, max_propagations=5)
    cache.store("k", VERDICT_UNKNOWN, max_propagations=60)
    assert cache.lookup("k") == VERDICT_UNSAT


def test_cache_store_keeps_the_larger_budget_unknown():
    # Regression: store() used to replace any unknown, so a smaller-budget
    # unknown erased the larger one that absorb() and flush() would keep.
    cache = SolverQueryCache()
    cache.store("k", VERDICT_UNKNOWN, max_propagations=10)
    cache.store("k", VERDICT_UNKNOWN, max_propagations=1)
    assert cache.lookup("k", max_propagations=5) == VERDICT_UNKNOWN
    assert cache.drain_new_entries() == [
        {"key": "k", "verdict": VERDICT_UNKNOWN, "max_propagations": 10,
         "elapsed": 0.0}]
    cache.store("k", VERDICT_UNKNOWN, max_propagations=20)   # covering
    assert cache.lookup("k", max_propagations=15) == VERDICT_UNKNOWN
    cache.store("k", VERDICT_SAT, max_propagations=1)        # definitive wins
    assert cache.lookup("k", max_propagations=60) == VERDICT_SAT


def test_cache_lru_eviction():
    cache = SolverQueryCache(capacity=2)
    cache.store("a", VERDICT_SAT)
    cache.store("b", VERDICT_SAT)
    assert cache.lookup("a") == VERDICT_SAT     # refresh "a"
    cache.store("c", VERDICT_SAT)               # evicts "b"
    assert cache.lookup("b") is None
    assert cache.lookup("a") == VERDICT_SAT
    assert cache.lookup("c") == VERDICT_SAT


def test_cache_disk_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cache = SolverQueryCache(path=path)
    cache.store("k1", VERDICT_UNSAT, max_propagations=100, elapsed=0.25)
    cache.store("k2", VERDICT_UNKNOWN, max_propagations=10)
    assert cache.flush() == 2
    assert cache.flush() == 0                   # nothing new since last flush

    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert {line["key"] for line in lines} == {"k1", "k2"}

    reloaded = SolverQueryCache(path=path)
    assert len(reloaded) == 2
    assert reloaded.lookup("k1") == VERDICT_UNSAT
    assert reloaded.lookup("k2", max_propagations=10) == VERDICT_UNKNOWN
    # Entries loaded from disk are not "new" and must not be re-flushed.
    assert reloaded.flush() == 0


def test_cache_load_tolerates_torn_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"key": "k", "verdict": "unsat",
                       "max_propagations": 10, "elapsed": 0.0})
    junk = ['{"key": "torn", "verd', "", '["key"]', '"keyring"',
            json.dumps({"key": "odd", "verdict": "maybe"})]
    path.write_text("\n".join([good] + junk) + "\n")
    cache = SolverQueryCache(path=str(path))
    assert len(cache) == 1
    assert cache.lookup("k") == VERDICT_UNSAT
    # A flush re-reads the file under the same rules and keeps the good entry.
    cache.store("k2", VERDICT_SAT)
    assert cache.flush() == 1
    reloaded = SolverQueryCache(path=str(path))
    assert len(reloaded) == 2
    assert reloaded.lookup("k") == VERDICT_UNSAT


def test_cache_load_skips_unknowns_of_older_budgets(tmp_path):
    # Files written when the budget was a deadline or a conflict count carry
    # no max_propagations.  Their unknowns say nothing about the propagation
    # budget (read as unbounded, they would be replayed forever); their sat
    # and unsat entries hold under any budget.
    path = tmp_path / "cache.jsonl"
    old = [{"key": "u", "verdict": "unknown", "timeout": 5.0,
            "max_conflicts": 50_000, "elapsed": 5.0},
           {"key": "s", "verdict": "sat", "timeout": 5.0,
            "max_conflicts": 50_000, "elapsed": 0.1},
           {"key": "n", "verdict": "unsat", "timeout": None,
            "max_conflicts": 10, "elapsed": 0.0}]
    path.write_text("".join(json.dumps(entry) + "\n" for entry in old))
    cache = SolverQueryCache(path=str(path))
    assert len(cache) == 2
    assert cache.lookup("u", max_propagations=1) is None
    assert cache.lookup("s") == VERDICT_SAT
    assert cache.lookup("n") == VERDICT_UNSAT
    # A flush re-reads the file under the same rule.
    cache.store("u", VERDICT_UNKNOWN, max_propagations=5)
    assert cache.flush() == 1
    reloaded = SolverQueryCache(path=str(path))
    assert len(reloaded) == 3
    assert reloaded.lookup("u", max_propagations=5) == VERDICT_UNKNOWN
    assert reloaded.lookup("u", max_propagations=6) is None


def test_cache_flush_merges_other_writers_entries(tmp_path):
    # Two caches sharing one path: flushing must merge, never clobber.
    path = str(tmp_path / "cache.jsonl")
    first = SolverQueryCache(path=path)
    second = SolverQueryCache(path=path)
    first.store("ka", VERDICT_UNSAT)
    second.store("kb", VERDICT_SAT)
    assert first.flush() == 1
    assert second.flush() == 1                  # does not lose "ka"
    reloaded = SolverQueryCache(path=path)
    assert len(reloaded) == 2
    assert reloaded.lookup("ka") == VERDICT_UNSAT
    assert reloaded.lookup("kb") == VERDICT_SAT


def test_cache_flush_never_downgrades_on_disk(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    first = SolverQueryCache(path=path)
    first.store("k", VERDICT_UNSAT, max_propagations=5)
    assert first.flush() == 1
    late = SolverQueryCache()
    late.store("k", VERDICT_UNKNOWN, max_propagations=60)
    assert late.flush(path) == 0                # unknown never wins on disk
    assert SolverQueryCache(path=path).lookup("k") == VERDICT_UNSAT


def test_cache_flush_is_safe_under_concurrent_processes(tmp_path):
    """The satellite regression: several processes repeatedly flushing one
    cache file must lose no entries and never leave a torn file (advisory
    lock + atomic temp-file rename)."""
    import subprocess
    import sys
    import textwrap

    import repro

    path = str(tmp_path / "shared-cache.jsonl")
    writers, rounds, per_round = 4, 5, 10
    script = textwrap.dedent("""
        import sys
        from repro.engine.cache import SolverQueryCache

        path, writer = sys.argv[1], int(sys.argv[2])
        for round_index in range(int(sys.argv[3])):
            cache = SolverQueryCache(path=path)
            for i in range(int(sys.argv[4])):
                cache.store(f"w{writer}-r{round_index}-{i}", "unsat")
            cache.flush()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    processes = [subprocess.Popen(
        [sys.executable, "-c", script, path, str(writer), str(rounds),
         str(per_round)], env=env) for writer in range(writers)]
    for process in processes:
        assert process.wait(timeout=120) == 0
    lines = [json.loads(line)
             for line in open(path, encoding="utf-8")]  # every line parses
    keys = [line["key"] for line in lines]
    assert len(keys) == len(set(keys)) == writers * rounds * per_round


# -- checker integration --------------------------------------------------------------


def test_query_cache_replays_across_identical_functions():
    source = snippet_by_name("fig1_pointer_overflow_check")
    cache = SolverQueryCache()
    first = check_source(source.render("one"), cache=cache)
    second = check_source(source.render("two"), cache=cache)
    # Alpha-renaming makes the two instances' queries structurally identical.
    assert first.queries == second.queries
    assert first.solver_queries > 0
    assert second.solver_queries == 0
    assert second.cache_hits == second.queries
    assert len(second.bugs) == len(first.bugs) > 0


def test_uncached_checker_has_zero_cache_hits():
    report = check_source(snippet_by_name("stable_division_guard").render("x"))
    assert report.cache_hits == 0
    assert report.solver_queries == report.queries


# -- corpus runs: equivalence and warm cache -----------------------------------------


def test_cold_run_shape(cold_run):
    units = corpus_units()
    assert cold_run.stats.units == len(units)
    assert cold_run.stats.failed_units == 0
    assert cold_run.stats.diagnostics > 0
    assert cold_run.stats.queries > 0
    # Every unstable snippet is flagged and no stable snippet is.
    flagged = {result.name for result in cold_run.results if result.report.bugs}
    assert flagged == {s.name for s in SNIPPETS}


def test_parallel_matches_sequential(cold_run, parallel_run):
    assert diagnostics_signature(parallel_run) == diagnostics_signature(cold_run)
    assert parallel_run.stats.units == cold_run.stats.units
    assert parallel_run.stats.diagnostics == cold_run.stats.diagnostics
    assert [r.name for r in parallel_run.results] == \
        [name for name, _ in corpus_units()]


def test_parallel_counters_repeat(parallel_run, parallel_rerun):
    """Unit i always runs on worker i mod N after the same units, so each
    worker's cache replays the same queries in every cold run."""
    def counters(run):
        return [(r.name, r.report.cache_hits, r.report.solver_queries)
                for r in run.results]

    assert counters(parallel_run) == counters(parallel_rerun)
    assert parallel_run.stats.solver_queries == \
        parallel_rerun.stats.solver_queries


def test_parallel_unit_records_stream_in_submission_order(tmp_path):
    """With the cache off the records of a 2-worker run equal the
    sequential run's line for line, without sorting."""
    from repro.engine.sink import verdict_view

    def unit_lines(workers):
        path = tmp_path / f"workers{workers}.jsonl"
        CheckEngine(EngineConfig(workers=workers, cache_enabled=False,
                                 results_path=str(path))
                    ).check_corpus(corpus_units())
        records = [json.loads(line) for line
                   in path.read_text(encoding="utf-8").splitlines()]
        return [json.dumps(verdict_view(record)) for record in records
                if record["type"] == "unit"]

    sequential = unit_lines(0)
    assert len(sequential) == len(corpus_units())
    assert unit_lines(2) == sequential


@pytest.mark.parametrize("checker", [
    CheckerConfig(),
    CheckerConfig(validate_witnesses=True, repair=True),
], ids=["plain", "witnesses-repair"])
def test_verdicts_do_not_depend_on_the_clock(tmp_path, monkeypatch, checker):
    """A clock that jumps an hour on every read changes no record.

    The per-query budget counts propagations, so no query runs out of it
    because the machine is slow or loaded.
    """
    import time

    from repro.engine.sink import verdict_view

    def records(name):
        path = tmp_path / f"{name}.jsonl"
        result = CheckEngine(EngineConfig(
            workers=0, checker=checker, cache_enabled=False,
            results_path=str(path))).check_corpus(corpus_units())
        assert result.stats.timeouts == 0
        return [json.dumps(verdict_view(json.loads(line)))
                for line in path.read_text(encoding="utf-8").splitlines()]

    steady = records("steady")
    now = [time.monotonic()]

    def jumping():
        now[0] += 3600.0
        return now[0]

    monkeypatch.setattr(time, "monotonic", jumping)
    assert records("jumping") == steady


def test_parallel_run_survives_worker_death(monkeypatch):
    from repro.engine.pool import CRASH_META_KEY, TEST_HOOKS_ENV

    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    units = [WorkUnit(name=name, source=source)
             for name, source in corpus_units()[:6]]
    units[1].meta[CRASH_META_KEY] = True
    result = CheckEngine(EngineConfig(workers=2)).check_corpus(units)
    assert [r.name for r in result.results] == [u.name for u in units]
    assert all(r.ok for r in result.results)
    assert result.stats.failed_units == 0
    # The pool strips the crash lever when it retries the unit, so its
    # absence shows the worker really died.
    assert CRASH_META_KEY not in result.results[1].meta


def test_warm_cache_issues_strictly_fewer_solver_queries(cold_run, warm_run):
    # Same questions asked...
    assert warm_run.stats.queries == cold_run.stats.queries
    # ...but the warm run replays verdicts instead of re-solving.
    assert warm_run.stats.solver_queries < cold_run.stats.solver_queries
    assert warm_run.stats.cache_hits > cold_run.stats.cache_hits
    # And the reports are byte-for-byte the same diagnostics.
    assert diagnostics_signature(warm_run) == diagnostics_signature(cold_run)


def test_check_modules_parallel_equivalence():
    from repro.api import check_modules_parallel, compile_source

    sources = [s.render("mods") for s in SNIPPETS[:4]]
    sequential = [check_source(src) for src in sources]
    modules = [compile_source(src) for src in sources]
    parallel = check_modules_parallel(modules, workers=2)
    assert [len(r.bugs) for r in parallel.reports] == \
        [len(r.bugs) for r in sequential]


# -- one budget ----------------------------------------------------------------------

#: A budget of one propagation starves every query that reaches CDCL.
STARVED = CheckerConfig(max_propagations=1)


def test_starved_budget_times_out_without_escalation():
    engine = CheckEngine(EngineConfig(workers=0, checker=STARVED))
    result = engine.check_corpus(
        [("fig1", snippet_by_name("fig1_pointer_overflow_check").render("t"))])
    assert result.stats.timeouts > 0
    assert result.stats.diagnostics == 0       # conservatively reports nothing


@pytest.mark.parametrize("workers", [0, 2])
def test_every_entry_point_checks_under_one_budget(tmp_path, workers):
    """Under a budget small enough that some queries run out, the engine's
    unit records equal what ``check_source`` reports for the same unit."""
    from repro.engine.sink import report_to_dict, verdict_view

    config = CheckerConfig(max_propagations=1000)
    units = [(s.name, s.render("budget")) for s in SNIPPETS]
    path = tmp_path / "results.jsonl"
    result = CheckEngine(EngineConfig(
        workers=workers, checker=config, cache_enabled=False,
        results_path=str(path))).check_corpus(units)
    assert result.stats.timeouts > 0           # the budget does bind
    records = [json.loads(line) for line
               in path.read_text(encoding="utf-8").splitlines()]
    engine_records = [json.dumps(verdict_view(record), sort_keys=True)
                      for record in records if record["type"] == "unit"]
    direct_records = [
        json.dumps(verdict_view(report_to_dict(
            name, check_source(source, filename=name + ".c", config=config))),
            sort_keys=True)
        for name, source in units]
    assert engine_records == direct_records


# -- work units and error handling ----------------------------------------------------


def test_work_unit_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        WorkUnit(name="bad")
    with pytest.raises(ValueError):
        from repro.api import compile_source
        WorkUnit(name="bad", source="int f() { return 0; }",
                 module=compile_source("int g() { return 0; }"))


def test_frontend_rejection_is_reported_not_fatal():
    result = check_corpus([("broken", "int f( {"),
                           ("fine", "int g(int x) { return x; }")], workers=0)
    assert result.stats.units == 2
    assert result.stats.failed_units == 1
    broken = result.results[0]
    assert not broken.ok and broken.error
    assert result.results[1].ok


def test_check_work_unit_standalone():
    unit = WorkUnit(name="u", source=snippet_by_name("fig2_null_check_after_deref").render("t"))
    result = check_work_unit(unit, CheckerConfig(), cache=SolverQueryCache())
    assert result.ok
    assert len(result.report.bugs) > 0
    assert result.cache_entries                 # worker-side drain happened


# -- JSONL result sink ----------------------------------------------------------------


def test_results_jsonl_schema(cold_run):
    lines = [json.loads(line)
             for line in open(cold_run._results_path, encoding="utf-8")]
    units = [line for line in lines if line["type"] == "unit"]
    runs = [line for line in lines if line["type"] == "run"]
    assert len(units) == cold_run.stats.units
    assert len(runs) == 1
    total = sum(len(line["diagnostics"]) for line in units)
    assert total == cold_run.stats.diagnostics
    summary = runs[0]
    assert summary["queries"] == cold_run.stats.queries
    assert summary["solver_queries"] == cold_run.stats.solver_queries
    assert "cache" in summary
    for line in units:
        for diagnostic in line["diagnostics"]:
            # ub_kinds may be empty (no single UB condition isolated), but
            # the field and a concrete algorithm must always be present.
            assert "ub_kinds" in diagnostic
            assert diagnostic["algorithm"]


# -- CheckerConfig.describe -----------------------------------------------------------


def test_checker_config_describe():
    text = CheckerConfig(max_propagations=2500, inline=False).describe()
    assert "max_propagations = 2500" in text
    assert "inline = False" in text
    # One line per field, and nothing else.
    lines = text.splitlines()
    assert lines[0] == "CheckerConfig:"
    assert [line.split(" = ")[0].strip() for line in lines[1:]] == \
        [f.name for f in dataclasses.fields(CheckerConfig)]


def test_trace_path_leaves_the_callers_config_alone(tmp_path):
    checker = CheckerConfig()
    config = EngineConfig(checker=checker,
                          trace_path=str(tmp_path / "trace.json"))
    engine = CheckEngine(config)
    assert engine.config.checker.trace          # a trace file implies tracing
    assert checker.trace is False
    assert config.checker is checker


# -- WorkUnit metadata and RunStats.merge ---------------------------------------------


def test_unit_meta_travels_to_results_and_sink(tmp_path):
    path = tmp_path / "results.jsonl"
    units = [
        WorkUnit(name="tagged", source="int f(int x) { return x; }",
                 meta={"scenario": "demo", "expected_unstable": False}),
        WorkUnit(name="plain", source="int g(int x) { return x; }"),
    ]
    engine = CheckEngine(EngineConfig(workers=0, results_path=str(path)))
    result = engine.check_corpus(units)
    assert result.results[0].meta == {"scenario": "demo",
                                      "expected_unstable": False}
    assert result.results[1].meta == {}
    records = [json.loads(line) for line
               in path.read_text(encoding="utf-8").splitlines()]
    assert records[0]["meta"]["scenario"] == "demo"
    assert records[1]["meta"] == {}


def test_unit_meta_survives_worker_processes():
    units = [WorkUnit(name=f"u{i}", source=f"int f{i}(int x) {{ return x; }}",
                      meta={"index": i}) for i in range(4)]
    engine = CheckEngine(EngineConfig(workers=2))
    result = engine.check_corpus(units)
    assert [r.meta["index"] for r in result.results] == [0, 1, 2, 3]


def test_unit_meta_survives_compile_failure():
    result = check_work_unit(WorkUnit(name="broken", source="int f( {",
                                      meta={"scenario": "x"}),
                             CheckerConfig())
    assert result.error is not None
    assert result.meta == {"scenario": "x"}


def test_run_stats_merge_accumulates_counters():
    from repro.engine.engine import RunStats

    first = RunStats(units=3, functions=5, diagnostics=2, queries=10,
                     cache_hits=4, workers=2, wall_clock=1.5, solver_time=0.5)
    second = RunStats(units=2, functions=1, diagnostics=1, queries=6,
                      cache_hits=1, workers=4, wall_clock=0.5,
                      solver_time=0.25)
    first.merge(second)
    assert first.units == 5
    assert first.functions == 6
    assert first.diagnostics == 3
    assert first.queries == 16
    assert first.cache_hits == 5
    assert first.workers == 4                   # max, not sum
    assert first.wall_clock == 2.0
    assert first.solver_time == 0.75


def test_run_stats_merge_matches_single_run():
    from repro.engine.engine import RunStats

    units = corpus_units("merge")
    whole = CheckEngine(EngineConfig(workers=0, cache_enabled=False)) \
        .check_corpus(units)
    merged = RunStats()
    engine = CheckEngine(EngineConfig(workers=0, cache_enabled=False))
    for half in (units[:len(units) // 2], units[len(units) // 2:]):
        merged.merge(engine.check_corpus(half).stats)
    assert merged.units == whole.stats.units
    assert merged.diagnostics == whole.stats.diagnostics
    assert merged.queries == whole.stats.queries
