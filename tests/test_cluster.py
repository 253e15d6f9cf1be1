"""Tests for the structural clustering subsystem (docs/CLUSTER.md).

Covers the three stages separately — fingerprint invariances, cluster
grouping, confirmed propagation — and then the end-to-end contracts: a
clustered check must report exactly what an exhaustive check reports, and
every copied verdict must have passed the per-member solver gate.
"""

import json

import pytest

from repro.api import compile_source
from repro.cluster import (
    cluster_functions,
    fingerprint_function,
    propagate,
    synthetic_cluster_corpus,
)
from repro.core.checker import CheckerConfig, StackChecker
from repro.core.report import report_signature
from repro.corpus.snippets import SNIPPETS
from repro.engine.engine import CheckEngine, EngineConfig
from repro.ir.instructions import BinaryOp, BinOpKind, ICmp, ICmpPred


def _functions(source):
    return compile_source(source, "t.c").defined_functions()


def _alpha_rename(function, tag):
    """Rename every argument, block, and named instruction (not semantics)."""
    function.name = f"{tag}_{function.name}"
    for index, argument in enumerate(function.arguments):
        argument.name = f"{tag}_arg{index}"
    for index, block in enumerate(function.blocks):
        block.name = f"{tag}_bb{index}"
    serial = 0
    for block in function.blocks:
        for inst in block.instructions:
            if inst.name:
                inst.name = f"{tag}_v{serial}"
                serial += 1


class TestFingerprint:
    def test_invariant_under_alpha_renaming(self):
        for snippet in SNIPPETS[:6]:
            function = _functions(snippet.render("x"))[0]
            before = fingerprint_function(function)
            _alpha_rename(function, "renamed")
            after = fingerprint_function(function)
            assert before.matches(after), snippet.name
            assert before.digest == after.digest

    def test_invariant_across_template_instances(self):
        # The archive workload: one pattern, many identifier suffixes.
        for snippet in SNIPPETS:
            first = _functions(snippet.render("alpha"))
            second = _functions(snippet.render("beta"))
            for one, two in zip(first, second):
                assert fingerprint_function(one).matches(
                    fingerprint_function(two)), snippet.name

    def test_invariant_under_block_list_reordering(self):
        function = _functions(SNIPPETS[0].render("x"))[0]
        before = fingerprint_function(function)
        assert len(function.blocks) > 2
        function.blocks[1:] = reversed(function.blocks[1:])
        assert fingerprint_function(function).matches(before)

    def test_invariant_under_commutative_operand_swap(self):
        left = _functions("int f_a(int a, int b) { return a + b; }")[0]
        right = _functions("int f_b(int a, int b) { return b + a; }")[0]
        assert fingerprint_function(left).matches(fingerprint_function(right))

    def test_sensitive_to_operations_and_constants(self):
        add = fingerprint_function(
            _functions("int f(int a, int b) { return a + b; }")[0])
        sub = fingerprint_function(
            _functions("int f(int a, int b) { return a - b; }")[0])
        shifted = fingerprint_function(
            _functions("int f(int a, int b) { return a + b + 1; }")[0])
        assert not add.matches(sub)
        assert not add.matches(shifted)

    def test_sensitive_to_noncommutative_operand_order(self):
        div = fingerprint_function(
            _functions("int f(int a, int b) { return a / b; }")[0])
        vid = fingerprint_function(
            _functions("int f(int a, int b) { return b / a; }")[0])
        assert not div.matches(vid)

    def test_distinct_templates_stay_distinct(self):
        digests = {fingerprint_function(fn).canonical
                   for snippet in SNIPPETS
                   for fn in _functions(snippet.render("x"))}
        functions = sum(len(_functions(s.render("x"))) for s in SNIPPETS)
        assert len(digests) == functions


class TestClustering:
    def test_groups_by_canonical_form_in_submission_order(self):
        units = [SNIPPETS[0].render("a"), SNIPPETS[1].render("a"),
                 SNIPPETS[0].render("b"), SNIPPETS[1].render("b")]
        tagged = []
        for unit_index, source in enumerate(units):
            for function_index, function in enumerate(_functions(source)):
                tagged.append((unit_index, function_index,
                               f"unit{unit_index}", function))
        clusters = cluster_functions(tagged)
        # fig2's unit defines two functions per instance; fig1 defines one.
        sizes = sorted(len(c) for c in clusters)
        assert all(size == 2 for size in sizes)
        first = clusters[0]
        assert first.representative is first.members[0]
        assert first.representative.key == (0, 0)
        assert first.members[1].key[0] == 2
        assert first.representative.label.startswith("unit0:")

    def test_commutative_instances_share_a_cluster(self):
        functions = _functions("int g_a(int a, int b) { return a + b; }\n"
                               "int g_b(int a, int b) { return b + a; }")
        clusters = cluster_functions(
            (0, i, "t", fn) for i, fn in enumerate(functions))
        assert len(clusters) == 1 and len(clusters[0]) == 2


def _clustered_unit(source):
    """A one-unit clustered engine run: the unit's report and run stats."""
    result = CheckEngine(EngineConfig(cluster=True, cache_enabled=False)) \
        .check_corpus([("t", source)])
    (unit,) = result.results
    return unit.report, result.stats


def _reversed_copies():
    """Each snippet twice in one module, the second copy's non-entry blocks
    reversed: the same function, but not hash-cons-identical."""
    modules = []
    for snippet in SNIPPETS:
        module = compile_source(snippet.render("a") + snippet.render("b"),
                                f"{snippet.name}.c")
        copy = module.defined_functions()[1]
        copy.blocks[1:] = list(reversed(copy.blocks[1:]))
        modules.append(module)
    return modules


class TestPropagation:
    def test_clustered_module_matches_exhaustive(self):
        source = "".join(SNIPPETS[0].render(tag) for tag in "abcd")
        clustered, stats = _clustered_unit(source)
        plain = StackChecker(CheckerConfig()).check_module(
            compile_source(source, "t.c"))
        assert report_signature(clustered) == report_signature(plain)
        assert stats.cluster_clusters == 1
        assert stats.cluster_propagated == stats.cluster_confirmed == 3
        assert stats.cluster_fallbacks == 0
        flags = [fr.cluster_propagated for fr in clustered.functions]
        assert flags == [False, True, True, True]
        assert all(len(fr.diagnostics) > 0 for fr in clustered.functions)

    def test_propagated_diagnostics_carry_member_identity(self):
        source = SNIPPETS[0].render("one") + SNIPPETS[0].render("two")
        clustered, _stats = _clustered_unit(source)
        member_report = clustered.functions[1]
        assert member_report.cluster_propagated
        for diagnostic in member_report.diagnostics:
            assert diagnostic.function == member_report.function
            assert "two" in diagnostic.function

    def test_void_functions_fall_back_to_full_checks(self):
        # No return value means the equivalence gate has nothing to compare;
        # the member must be re-checked in full, never blindly copied.
        source = ("void sink_a(int *p) { if (p) *p = 0; }\n"
                  "void sink_b(int *q) { if (q) *q = 0; }\n")
        clustered, stats = _clustered_unit(source)
        plain = StackChecker(CheckerConfig()).check_module(
            compile_source(source, "t.c"))
        assert report_signature(clustered) == report_signature(plain)
        assert stats.cluster_clusters == 1
        assert stats.cluster_propagated == 0 and stats.cluster_fallbacks == 1
        assert not any(fr.cluster_propagated for fr in clustered.functions)

    def test_reordered_copies_are_confirmed_by_the_equivalence_query(
            self, monkeypatch):
        # Reordered blocks encode to different terms, so no member collapses
        # onto its representative and every one needs the full proof.
        proofs = []
        query = propagate.equivalence_query

        def counted(*args):
            verdict = query(*args)
            proofs.append(verdict)
            return verdict

        monkeypatch.setattr(propagate, "equivalence_query", counted)
        clustered = CheckEngine(EngineConfig(
            cluster=True, cache_enabled=False)).check_modules(
                _reversed_copies())
        monkeypatch.undo()
        plain = CheckEngine(EngineConfig(cache_enabled=False)).check_modules(
            _reversed_copies())

        stats = clustered.stats
        assert len(proofs) == len(SNIPPETS) == 22
        assert stats.cluster_clusters == 22
        assert stats.cluster_propagated == stats.cluster_confirmed == 21
        assert stats.cluster_fallbacks == 1
        (fallback,) = [result.name for result in clustered.results
                       if not result.report.functions[1].cluster_propagated]
        assert fallback == "signed_add_sanity_check.c"
        assert [(r.name, report_signature(r.report))
                for r in clustered.results] == \
               [(r.name, report_signature(r.report)) for r in plain.results]


class TestEngineIntegration:
    def test_engine_clustered_run_matches_exhaustive(self, tmp_path):
        corpus = synthetic_cluster_corpus(12, seed=0, snippets=SNIPPETS[:4])
        results_path = tmp_path / "results.jsonl"
        clustered = CheckEngine(EngineConfig(
            workers=0, cluster=True,
            results_path=str(results_path))).check_corpus(corpus)
        exhaustive = CheckEngine(EngineConfig(
            workers=0, checker=CheckerConfig())).check_corpus(corpus)

        assert [(r.name, report_signature(r.report))
                for r in clustered.results] == \
               [(r.name, report_signature(r.report))
                for r in exhaustive.results]

        stats = clustered.stats
        assert stats.cluster_functions == 12
        assert stats.cluster_clusters == 4
        assert stats.cluster_propagated == stats.cluster_confirmed == 8
        assert stats.cluster_fallbacks == 0
        assert stats.as_dict()["cluster"]["propagated"] == 8

        records = [json.loads(line)
                   for line in results_path.read_text().splitlines()]
        units = [r for r in records if r["type"] == "unit"]
        cluster_records = [r for r in records if r["type"] == "cluster"]
        assert [u["unit"] for u in units] == [name for name, _ in corpus]
        assert len(cluster_records) == 4
        for record in cluster_records:
            assert record["size"] == 3
            assert record["propagated"] == 2
            assert record["fallbacks"] == 0
            assert record["representative"] in record["members"]
        propagated_units = [
            f["propagated"] for u in units for f in u["functions"]]
        assert propagated_units.count(True) == 8

    def test_compile_errors_surface_as_failed_units(self):
        corpus = [("good", SNIPPETS[0].render("g")),
                  ("broken", "int f( {")]
        result = CheckEngine(EngineConfig(
            workers=0, cluster=True)).check_corpus(corpus)
        assert result.stats.units == 2
        assert result.stats.failed_units == 1
        broken = result.results[1]
        assert broken.error is not None and not broken.report.functions
