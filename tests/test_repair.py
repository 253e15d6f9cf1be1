"""Tests for the stage-6 auto-repair subsystem (repro.repair)."""

import json

import pytest

from repro.api import check_source, compile_source
from repro.core.checker import CheckerConfig
from repro.core.report import report_signature
from repro.exec.clone import clone_function
from repro.ir.instructions import BinaryOp, BinOpKind, ICmp
from repro.ir.values import Constant
from repro.repair import (
    GATES,
    RepairStatus,
    prove_equivalence,
    recheck_stability,
    unified_patch,
)
from repro.repair.rewrite import clone_with_map, remove_dead_code

SIGNED = """
int alloc_guard(int len) {
    if (len + 100 < len)
        return -1;
    return len + 100;
}
"""

NULL_AFTER_DEREF = """
struct sock { int fd; };
struct tun_struct { struct sock *sk; };
int tun_chr_poll(struct tun_struct *tun) {
    struct sock *sk = tun->sk;
    if (!tun)
        return 1;
    return 0;
}
"""

POINTER = """
int write_check(char *buf, char *buf_end, unsigned int len) {
    if (buf + len >= buf_end) return -1;
    if (buf + len < buf) return -1;
    return 0;
}
"""

SHIFT = """
int ext4_fill_super(int groups_per_flex) {
    if (!(1 << groups_per_flex))
        return -22;
    return 1 << groups_per_flex;
}
"""

DIVISION = """
int average(int total, int count) {
    int mean = total / count;
    if (count == 0)
        return 0;
    return mean;
}
"""

STABLE = """
int safe_div(int a, int b) {
    if (b == 0) return 0;
    return a / b;
}
"""


def repair_config(**overrides):
    return CheckerConfig(repair=True, **overrides)


@pytest.fixture(scope="module")
def signed_repair_report():
    """One shared repair run over SIGNED (the widen proof is the slow part)."""
    return check_source(SIGNED, config=repair_config())


def check_repaired(source, template=None):
    report = check_source(source, config=repair_config())
    assert report.bugs
    for bug in report.bugs:
        assert bug.repair is not None
        assert bug.repair.status is RepairStatus.REPAIRED, bug.repair.reason
        assert bug.repair.all_gates_passed
        if template is not None:
            assert bug.repair.template == template
    return report


class TestTemplatesEndToEnd:
    def test_widen_signed_arithmetic(self, signed_repair_report):
        report = signed_repair_report
        for bug in report.bugs:
            assert bug.repair.status is RepairStatus.REPAIRED
            assert bug.repair.all_gates_passed
            assert bug.repair.template == "widen-signed-arithmetic"
        patch = report.bugs[0].repair.patch
        assert "sext i32 %len to i33" in patch
        assert patch.startswith("--- a/alloc_guard.ll")
        # The unstable narrow comparison is gone from the patched side.
        assert "-  %t4 = icmp slt i32 %t2, i32 %len" in patch

    def test_reorder_null_check_above_dereference(self):
        report = check_repaired(NULL_AFTER_DEREF, template="reorder-guard")
        patch = report.bugs[0].repair.patch
        # The dereference chain leaves the entry block — its value is never
        # used, so after sinking below the guard the cleanup drops it
        # entirely and the null check stops being dominated by it.
        assert patch.count("-  %t4 = load") == 1
        assert "+  %t4 = load" not in patch

    def test_reorder_keeps_a_used_dereference(self):
        # When the guarded value *is* used, the chain must survive the
        # move: it reappears below the guard instead of being deleted.
        report = check_repaired(DIVISION, template="reorder-guard")
        patch = report.bugs[0].repair.patch
        assert patch.count("-  %t3 = sdiv") == 1
        assert patch.count("+  %t3 = sdiv") == 1

    def test_pointer_bound_check(self):
        report = check_repaired(POINTER, template="pointer-bound-check")
        patch = report.bugs[0].repair.patch
        assert "ptrtoint" in patch
        # Both pointer-sum comparisons are rewritten, so no gep survives.
        assert "+  %t4 = gep" not in patch

    def test_guard_oversized_shift(self):
        report = check_repaired(SHIFT, template="guard-oversized-shift")
        patch = report.bugs[0].repair.patch
        assert "icmp uge i32 %groups_per_flex, i32 32" in patch

    def test_reorder_division_below_guard(self):
        check_repaired(DIVISION, template="reorder-guard")

    def test_no_template_for_division_overflow_idiom(self):
        report = check_source("""
            int64_t int8div(int64_t arg1, int64_t arg2) {
                if (arg2 == 0)
                    return 0;
                int64_t result = arg1 / arg2;
                if (arg2 == -1 && arg1 < 0 && result <= 0)
                    return 0;
                return result;
            }
        """, config=repair_config())
        assert report.bugs
        for bug in report.bugs:
            assert bug.repair.status is RepairStatus.NO_TEMPLATE
            assert not bug.repair.patch

    def test_stable_code_attempts_nothing(self):
        report = check_source(STABLE, config=repair_config())
        assert not report.bugs
        assert report.repairs_attempted == 0


class TestReportsAndCounters:
    def test_function_report_counters(self, signed_repair_report):
        report = signed_repair_report
        assert report.repairs_attempted == len(report.bugs) == 2
        assert report.repairs_succeeded == 2
        assert report.repairs_rejected == 0
        assert report.repairs_no_template == 0
        assert report.repair_time > 0

    def test_describe_mentions_repair(self, signed_repair_report):
        text = signed_repair_report.describe()
        assert "auto-repair: 2 of 2 diagnostics repaired" in text
        assert "widen-signed-arithmetic" in text

    def test_diagnostics_unchanged_by_repair(self, signed_repair_report):
        # Stage 6 annotates; it must never change what is reported.
        plain = check_source(SIGNED, config=CheckerConfig())
        assert report_signature(plain) == \
            report_signature(signed_repair_report)

    def test_sink_record_carries_repair(self, signed_repair_report):
        from repro.engine.sink import report_to_dict

        record = report_to_dict("unit0", signed_repair_report)
        assert record["repairs_attempted"] == 2
        assert record["repairs_succeeded"] == 2
        function_repair = record["functions"][0]["repair"]
        assert function_repair["repaired"] == 2
        assert set(function_repair["gate_rejections"]) == \
            {"equivalence", "recheck", "replay"}
        diagnostic = record["diagnostics"][0]["repair"]
        assert diagnostic["status"] == "repaired"
        assert diagnostic["patch"].startswith("--- a/")
        assert [g["gate"] for g in diagnostic["gates"]] == \
            ["solver-equivalence", "stability-recheck", "witness-replay"]
        json.dumps(record)       # the record stays plain-JSON serialisable

    def test_engine_runstats_aggregate_repairs(self):
        from repro.engine.engine import CheckEngine, EngineConfig

        engine = CheckEngine(EngineConfig(workers=0, checker=repair_config()))
        result = engine.check_corpus([("u0", DIVISION), ("u1", STABLE)])
        stats = result.stats.as_dict()
        assert stats["repair"]["attempted"] == 2
        assert stats["repair"]["repaired"] == 2
        assert stats["repair"]["no_template"] == 0

    def test_parallel_engine_pickles_repair_reports(self):
        from repro.engine.engine import CheckEngine, EngineConfig

        engine = CheckEngine(EngineConfig(workers=2, checker=repair_config()))
        result = engine.check_corpus([("u0", NULL_AFTER_DEREF),
                                      ("u1", DIVISION)])
        assert result.stats.repairs_succeeded == \
            result.stats.repairs_attempted > 0
        for bug in result.bugs:
            assert bug.repair is not None
            assert bug.repair.status is RepairStatus.REPAIRED


class TestVerifierGates:
    def _function(self, source):
        return compile_source(source).defined_functions()[0]

    def test_equivalence_rejects_a_wrong_constant(self):
        function = self._function(SIGNED)
        broken = clone_function(function)
        # Sabotage: change the fall-through `len + 100` into `len + 101`.
        for inst in broken.instructions():
            if isinstance(inst, BinaryOp) and inst.kind is BinOpKind.ADD:
                inst.operands[1] = Constant(inst.type, 101)
        gate = prove_equivalence(function, broken, max_propagations=None)
        assert not gate.passed
        assert "differs" in gate.reason

    def test_equivalence_accepts_the_identity_patch(self):
        function = self._function(SIGNED)
        gate = prove_equivalence(function, clone_function(function),
                                 max_propagations=None)
        assert gate.passed

    def test_equivalence_ignores_ub_input_behaviour(self, signed_repair_report):
        # Replacing the unstable comparison's narrow add with exact wide
        # arithmetic changes behaviour *only* on overflowing inputs; the
        # gate must accept it because those inputs are excluded by the
        # well-defined assumption of the original.
        repair = signed_repair_report.bugs[0].repair
        assert repair.status is RepairStatus.REPAIRED
        assert repair.gates[0].gate == "solver-equivalence"
        assert repair.gates[0].passed

    def test_recheck_rejects_the_original_function(self):
        # The unpatched unstable function itself must fail the re-check
        # gate: it is still flagged.
        function = self._function(SIGNED)
        gate = recheck_stability(clone_function(function), CheckerConfig())
        assert not gate.passed
        assert "flagged" in gate.reason

    def test_unified_patch_shape(self):
        function = self._function(STABLE)
        clone = clone_function(function)
        clone.blocks[0].instructions[0].operands[1] = \
            Constant(clone.arguments[0].type, 7)
        patch = unified_patch(function, clone)
        assert patch.startswith("--- a/safe_div.ll")
        assert "+++ b/safe_div.ll" in patch
        assert any(line.startswith("+") for line in patch.splitlines()[2:])

    def test_gate_order_is_stable(self):
        assert GATES == ("equivalence", "recheck", "replay")


class TestRewriteHelpers:
    def test_clone_with_map_is_positional(self):
        function = compile_source(POINTER).defined_functions()[0]
        clone, inst_map, block_map = clone_with_map(function)
        for old_block, new_block in zip(function.blocks, clone.blocks):
            assert block_map[id(old_block)] is new_block
            for old_inst, new_inst in zip(old_block.instructions,
                                          new_block.instructions):
                assert inst_map[id(old_inst)] is new_inst
                assert old_inst.name == new_inst.name

    def test_remove_dead_code_drops_unused_pure_chain(self):
        function = compile_source(SIGNED).defined_functions()[0]
        clone = clone_function(function)
        # Orphan the comparison: nothing uses it once the branch condition
        # is replaced by a constant.
        from repro.ir.types import IntType

        for block in clone.blocks:
            for inst in list(block.instructions):
                if isinstance(inst, ICmp):
                    for user in clone.instructions():
                        user.replace_operand(
                            inst, Constant(IntType(1, signed=False), 0))
        removed = remove_dead_code(clone)
        assert removed >= 1
        assert not any(isinstance(i, ICmp) for i in clone.instructions())


class TestSeedPlumbing:
    def test_witness_seed_flows_into_replay(self):
        config = CheckerConfig(validate_witnesses=True, witness_seed=7)
        report = check_source(SIGNED, config=config)
        assert report.witnesses_confirmed == len(report.bugs) > 0

    def test_seeded_runs_are_reproducible(self):
        results = [check_source(DIVISION, config=CheckerConfig(
            validate_witnesses=True, repair=True, witness_seed=3))
            for _ in range(2)]
        first, second = results
        assert report_signature(first) == report_signature(second)
        assert [b.repair.patch for b in first.bugs] == \
            [b.repair.patch for b in second.bugs]
