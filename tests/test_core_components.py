"""Component-level tests for the checker internals: encoder, queries, min-UB sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import compile_source
from repro.core.encode import FunctionEncoder
from repro.core.elimination import run_elimination
from repro.core.mincond import minimal_ub_conditions
from repro.core.queries import QueryEngine
from repro.core.simplification import AlgebraOracle, BooleanOracle, run_simplification
from repro.core.ubconditions import UBKind
from repro.ir.instructions import GetElementPtr, ICmp, Load
from repro.solver.terms import TermManager


def encoder_for(source: str, name: str | None = None) -> FunctionEncoder:
    module = compile_source(source)
    function = module.defined_functions()[0] if name is None else module.get_function(name)
    return FunctionEncoder(function)


class TestEncoderValues:
    def test_arguments_become_named_variables(self):
        encoder = encoder_for("int f(int x) { return x; }")
        x = encoder.function.argument("x")
        term = encoder.term(x)
        assert term.is_var()
        assert "arg.x" in term.name
        assert term.width == 32

    def test_terms_are_cached(self):
        encoder = encoder_for("int f(int x) { return x + x; }")
        add = next(i for i in encoder.function.instructions()
                   if i.opcode() == "add")
        assert encoder.term(add) is encoder.term(add)

    def test_loads_are_unconstrained_and_distinct(self):
        encoder = encoder_for("int f(int *p) { return *p + *p; }")
        loads = [i for i in encoder.function.instructions() if isinstance(i, Load)]
        assert len(loads) == 2
        assert encoder.term(loads[0]) is not encoder.term(loads[1])

    def test_abs_call_modeled_precisely(self):
        encoder = encoder_for("int f(int x) { return abs(x); }")
        call = next(i for i in encoder.function.instructions()
                    if i.opcode().startswith("call"))
        term = encoder.term(call)
        # ite(x < 0, -x, x), not a fresh variable
        assert not term.is_var()

    def test_unknown_call_is_fresh_variable(self):
        encoder = encoder_for("int f(int x) { return rand_value(x); }")
        call = next(i for i in encoder.function.instructions()
                    if i.opcode().startswith("call"))
        assert encoder.term(call).is_var()

    def test_division_partial_axioms_registered(self):
        encoder = encoder_for("int f(int a, int b) { return a / b; }")
        div = next(i for i in encoder.function.instructions()
                   if i.opcode() == "sdiv")
        result = encoder.term(div)
        assert result.is_var()
        definitions = encoder.definitions_for(result)
        assert definitions  # the b == ±1 / a == 0 axioms


class TestEncoderReachability:
    SOURCE = """
    int f(int x) {
        if (x > 10) {
            if (x < 5)
                return 1;
            return 2;
        }
        return 3;
    }
    """

    def test_entry_is_always_reachable(self):
        encoder = encoder_for(self.SOURCE)
        assert encoder.block_reach(encoder.function.entry).value is True

    def test_contradictory_nested_block_detected_by_elimination(self):
        encoder = encoder_for(self.SOURCE)
        engine = QueryEngine(encoder)
        findings = run_elimination(encoder, engine)
        trivially_dead = [f for f in findings if f.trivially_dead]
        # x > 10 && x < 5 is unsatisfiable even without the UB assumption.
        assert trivially_dead
        # Nothing here is *unstable* (no UB involved).
        assert not [f for f in findings if not f.trivially_dead]

    def test_loop_back_edge_excluded(self):
        encoder = encoder_for("""
            int f(int n) {
                int i = 0;
                while (i < n)
                    i = i + 1;
                return i;
            }
        """)
        # Reachability of the loop body must not be constant false even though
        # back edges are dropped.
        body = next(b for b in encoder.function.blocks if b.name.startswith("while.body"))
        reach = encoder.block_reach(body)
        assert not (reach.is_const() and reach.value is False)


class TestEncoderUBConditions:
    def test_every_expected_kind_emitted(self):
        encoder = encoder_for("""
            int f(int *p, int x, int y, char *buf, unsigned int len) {
                int a[4];
                int v = *p;
                int s = x + y;
                int d = x / y;
                int sh = x << y;
                int b = a[x];
                int m = abs(x);
                char *q = buf + len;
                return v + s + d + sh + b + m;
            }
        """)
        kinds = set()
        for inst in encoder.function.instructions():
            for condition in encoder.ub_conditions(inst):
                kinds.add(condition.kind)
        assert {UBKind.NULL_DEREF, UBKind.SIGNED_OVERFLOW, UBKind.DIV_BY_ZERO,
                UBKind.OVERSIZED_SHIFT, UBKind.BUFFER_OVERFLOW,
                UBKind.ABS_OVERFLOW, UBKind.POINTER_OVERFLOW} <= kinds

    def test_unsigned_arithmetic_has_no_overflow_condition(self):
        encoder = encoder_for("""
            unsigned int f(unsigned int a, unsigned int b) { return a + b; }
        """)
        kinds = set()
        for inst in encoder.function.instructions():
            for condition in encoder.ub_conditions(inst):
                kinds.add(condition.kind)
        assert UBKind.SIGNED_OVERFLOW not in kinds

    def test_member_access_condition_names_base_pointer(self):
        encoder = encoder_for("""
            struct pair { int a; int b; };
            int f(struct pair *p) { return p->b; }
        """)
        load = next(i for i in encoder.function.instructions() if isinstance(i, Load))
        conditions = encoder.ub_conditions(load)
        null_conditions = [c for c in conditions if c.kind is UBKind.NULL_DEREF]
        assert null_conditions
        # The condition constrains p itself, not p + offset.
        assert "arg.p" in repr(null_conditions[0].condition)

    def test_use_after_free_condition(self):
        encoder = encoder_for("""
            int f(int *p) { free(p); return *p; }
        """)
        load = next(i for i in encoder.function.instructions() if isinstance(i, Load))
        kinds = {c.kind for c in encoder.ub_conditions(load)}
        assert UBKind.USE_AFTER_FREE in kinds


class TestQueriesAndMinimalSets:
    def test_query_engine_counts(self):
        encoder = encoder_for("int f(int x) { return x; }")
        engine = QueryEngine(encoder)
        manager = encoder.manager
        assert engine.is_unsat([manager.false()]) is True
        assert engine.is_unsat([manager.true()]) is False
        assert engine.stats.queries == 2

    def test_minimal_set_isolates_the_relevant_condition(self):
        encoder = encoder_for("""
            int f(int *p, int x) {
                int v = *p;
                int s = x + 1;
                if (!p) return -1;
                return v + s;
            }
        """)
        engine = QueryEngine(encoder)
        check = next(i for i in encoder.function.instructions()
                     if isinstance(i, ICmp))
        conditions = encoder.dominating_ub_conditions(check)
        assert len(conditions) >= 2  # null deref + signed overflow
        expression = encoder.comparison_bool(check)
        reach = encoder.instruction_reach(check)
        hypothesis_terms = [expression, reach]
        minimal = minimal_ub_conditions(engine, hypothesis_terms, conditions)
        assert [c.kind for c in minimal] == [UBKind.NULL_DEREF]

    def test_simplification_oracle_order_and_skip(self):
        encoder = encoder_for("""
            int f(char *d, char *end, int n) {
                if (d + n < d) return -1;
                return 0;
            }
        """)
        engine = QueryEngine(encoder)
        findings = run_simplification(encoder, engine,
                                      oracles=[BooleanOracle(), AlgebraOracle()])
        reported = [f for f in findings if not f.trivially_simplified]
        assert reported
        # A comparison reported by the boolean oracle is not re-reported by
        # the algebra oracle.
        instructions = [id(f.instruction) for f in reported]
        assert len(instructions) == len(set(instructions))


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=120))
    def test_guarded_addition_never_flagged(self, bound):
        from repro.api import check_source
        source = f"""
        int f(int x) {{
            if (x < 0 || x > {bound}) return -1;
            return x + {bound};
        }}
        """
        assert not check_source(source).bugs

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=1000))
    def test_unstable_signed_check_always_flagged(self, constant):
        from repro.api import check_source
        source = f"""
        int f(int x) {{
            if (x + {constant} < x) return -1;
            return 0;
        }}
        """
        report = check_source(source)
        assert report.bugs
        kinds = {k for b in report.bugs for k in b.ub_kinds}
        assert UBKind.SIGNED_OVERFLOW in kinds
