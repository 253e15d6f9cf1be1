"""Tests for structural hashing in :class:`repro.solver.cnf.CnfBuilder`.

Three layers:

* the memo itself: a repeated AND/XOR of the same inputs returns the same
  literal and adds nothing, and XOR moves input signs to its output;
* soundness under push/pop: gate clauses are never guarded, so a gate
  shared across frames stays valid after its frame is popped;
* an exhaustive small-width check that every blasted arithmetic, shift and
  comparison circuit agrees with :meth:`TermManager.evaluate` on every
  input, with all circuits of one width hashed into one builder.
"""

import itertools

import pytest

from repro.api import check_source
from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.solver import solver as solver_module
from repro.solver.bitblast import BitBlaster
from repro.solver.cnf import CnfBuilder
from repro.solver.sat import SatResult, SatSolver
from repro.solver.terms import TermManager


@pytest.fixture()
def cnf():
    return CnfBuilder(SatSolver())


def _size(cnf):
    return cnf.num_clauses, cnf.sat.num_vars


# -- the memo ----------------------------------------------------------------------


def test_and_gate_is_hashed_on_the_unordered_pair(cnf):
    a, b = cnf.new_lit(), cnf.new_lit()
    out = cnf.and_gate(a, b)
    before = _size(cnf)
    assert cnf.and_gate(b, a) == out
    assert cnf.and_gate(a, b) == out
    assert _size(cnf) == before
    # Signs are part of the AND key: these are different gates.
    assert cnf.and_gate(-a, b) not in (out, -out)


def test_xor_gate_moves_input_signs_to_the_output(cnf):
    a, b = cnf.new_lit(), cnf.new_lit()
    out = cnf.xor_gate(a, b)
    before = _size(cnf)
    assert cnf.xor_gate(b, a) == out
    assert cnf.xor_gate(-a, b) == -out
    assert cnf.xor_gate(a, -b) == -out
    assert cnf.xor_gate(-b, -a) == out
    assert _size(cnf) == before


def test_xor_gate_first_built_with_a_negative_input(cnf):
    a, b = cnf.new_lit(), cnf.new_lit()
    out = cnf.xor_gate(-a, b)
    cnf.sat.add_clause([a])
    cnf.sat.add_clause([b])
    assert cnf.sat.solve() is SatResult.SAT
    # xor(false, true) is true, whatever the sign of the stored gate.
    assert cnf.sat.model_value(abs(out)) is (out > 0)
    assert cnf.xor_gate(a, b) == -out


def test_or_gate_shares_the_and_encoding(cnf):
    a, b = cnf.new_lit(), cnf.new_lit()
    out = cnf.or_gate(a, b)
    before = _size(cnf)
    assert out == -cnf.and_gate(-a, -b)
    assert cnf.or_gate(b, a) == out
    assert _size(cnf) == before


def test_constant_and_complement_shortcuts_add_nothing(cnf):
    a = cnf.new_lit()
    true, false = cnf.true_lit, cnf.false_lit
    before = _size(cnf)
    assert cnf.and_gate(a, true) == a
    assert cnf.and_gate(false, a) == false
    assert cnf.and_gate(a, a) == a
    assert cnf.and_gate(a, -a) == false
    assert cnf.xor_gate(a, false) == a
    assert cnf.xor_gate(true, a) == -a
    assert cnf.xor_gate(a, a) == false
    assert cnf.xor_gate(-a, a) == true
    assert cnf.or_gate(a, -a) == true
    assert _size(cnf) == before


# -- soundness under push/pop ----------------------------------------------------------


class _RecordingBuilder(CnfBuilder):
    """A builder that logs every clause, guard and hashed gate."""

    def __init__(self, sat, record=False):
        self.log = []            # (clause, guard or None)
        self.guards = set()
        self.gates = []          # (a, b, out) of every and/xor call
        self._guard = None
        super().__init__(sat, record=record)

    def add_clause(self, lits):
        self.log.append((list(lits), self._guard))
        super().add_clause(lits)

    def assert_lit(self, lit, guard=None):
        if guard is not None:
            self.guards.add(guard)
        self._guard = guard
        try:
            super().assert_lit(lit, guard=guard)
        finally:
            self._guard = None

    def and_gate(self, a, b):
        out = super().and_gate(a, b)
        self.gates.append((a, b, out))
        return out

    def xor_gate(self, a, b):
        out = super().xor_gate(a, b)
        self.gates.append((a, b, out))
        return out


def test_activation_literals_only_guard_assertions(monkeypatch):
    builders = []

    def recording(sat, record=False):
        builders.append(_RecordingBuilder(sat, record=record))
        return builders[-1]

    monkeypatch.setattr(solver_module, "CnfBuilder", recording)
    config = CheckerConfig(incremental=True)
    for snippet in SNIPPETS + STABLE_SNIPPETS:
        check_source(snippet.render("guard"), f"{snippet.name}.c", config)

    assert sum(len(builder.guards) for builder in builders) > 0
    for builder in builders:
        acts = builder.guards
        assert all(act > 0 for act in acts)
        for clause, guard in builder.log:
            touched = acts.intersection(abs(lit) for lit in clause)
            if not touched:
                continue
            # Either the guarded assertion (-act ∨ lit) or pop's unit (-act).
            (act,) = touched
            if guard is not None:
                assert guard == act and len(clause) == 2 and \
                    clause[0] == -act and abs(clause[1]) not in acts
            else:
                assert clause == [-act]
        for a, b, out in builder.gates:
            assert not acts.intersection((abs(a), abs(b), abs(out)))


# -- exhaustive small-width circuits ---------------------------------------------------


BINARY_OPS = ("bvadd", "bvsub", "bvmul", "bvudiv", "bvurem", "bvsdiv",
              "bvsrem", "bvshl", "bvlshr", "bvashr")
COMPARISONS = ("bvult", "bvule", "bvugt", "bvuge",
               "bvslt", "bvsle", "bvsgt", "bvsge")


def model_word(sat, bits):
    return sum(1 << i for i, lit in enumerate(bits)
               if sat.model_value(abs(lit)) == (lit > 0))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_blasted_circuits_match_the_evaluator_on_every_input(width):
    mgr = TermManager()
    x, y = mgr.bv_var("x", width), mgr.bv_var("y", width)
    cnf = CnfBuilder(SatSolver())
    blaster = BitBlaster(cnf)
    # Both operand orders, all in one builder: the second order of a
    # commutative op, and every shared sub-circuit, comes from the memo.
    words, bools = [], []
    for name in BINARY_OPS:
        for lhs, rhs in ((x, y), (y, x)):
            term = getattr(mgr, name)(lhs, rhs)
            words.append((term, blaster.blast_bv(term)))
    for name in COMPARISONS:
        for lhs, rhs in ((x, y), (y, x)):
            term = getattr(mgr, name)(lhs, rhs)
            bools.append((term, blaster.blast_bool(term)))
    outputs = words + [(term, [lit]) for term, lit in bools]
    inputs = blaster.known_bv_variables()
    sat = cnf.sat

    def bit(lit, value):
        return lit if value else -lit

    for xv, yv in itertools.product(range(1 << width), repeat=2):
        env = {"x": xv, "y": yv}
        fixed = [bit(lit, (value >> i) & 1)
                 for name, value in env.items()
                 for i, lit in enumerate(inputs[name])]
        values = [int(mgr.evaluate(term, env)) for term, _bits in outputs]
        # Every output at its evaluated value at once: SAT.
        want = [bit(lit, (value >> i) & 1)
                for (_term, bits), value in zip(outputs, values)
                for i, lit in enumerate(bits)]
        assert sat.solve(assumptions=fixed + want) is SatResult.SAT, env
        # Some output at any other value: UNSAT.  The clause "some bit
        # differs" is guarded by a fresh literal and retired afterwards,
        # the way the incremental solver pops a frame.
        guard = cnf.new_lit()
        cnf.add_clause([-guard] + [-lit for lit in want])
        if sat.solve(assumptions=fixed + [guard]) is not SatResult.UNSAT:
            wrong = [term.op for (term, bits), value in zip(outputs, values)
                     if value != model_word(sat, bits)]
            pytest.fail(f"{env}: other outputs reachable for {wrong}")
        cnf.add_clause([-guard])
