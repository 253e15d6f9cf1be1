"""Oracle pre-answers: decide trivial queries before any CNF exists.

gasol-optimizer-style cheap pre-checks that run before the query reaches a
SAT backend.
Two oracles, both sound and both CNF-free:

* **constant** — the simplified conjunction folded to a boolean constant;
  the query is decided outright (``true`` → SAT, ``false`` → UNSAT).
* **evaluation** — a handful of structured concrete assignments (zeros,
  ones, INT_MIN/INT_MAX, small powers of two, rotated across variables)
  are run through the term evaluator; a verified satisfying assignment is
  a model, so the answer SAT needs no solver.  This oracle never claims
  UNSAT.

Answers are expressed in plain values (verdict string + name→int
assignment) so the module depends only on the term layer; the
:class:`~repro.solver.solver.Solver` facade maps them onto its
``CheckResult``/``Model`` types and counts them in ``SolverStats``
(``oracle_sat`` / ``oracle_unsat``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.solver.terms import Term, TermManager, collect_variables

#: Seed patterns tried by the evaluation oracle, as functions of the
#: variable width.
GUESS_PATTERNS = (
    lambda width: 0,
    lambda width: 1,
    lambda width: (1 << width) - 1,            # -1 / all ones
    lambda width: 1 << (width - 1),            # INT_MIN
    lambda width: (1 << (width - 1)) - 1,      # INT_MAX
    lambda width: 2,
    lambda width: 0x10,
    lambda width: (1 << width) - 0x10,
)

#: Queries with more variables than this skip the evaluation oracle.
MAX_GUESS_VARIABLES = 24


@dataclass
class OracleAnswer:
    """A pre-answer: 'sat' or 'unsat', with a concrete model when SAT."""

    verdict: str                               # "sat" | "unsat"
    assignment: Optional[Dict[str, int]]       # name -> value (SAT only)
    reason: str                                # "constant" | "evaluation"


def constant_answer(conjunction: Term) -> Optional[OracleAnswer]:
    """Decide a conjunction that simplification folded to a constant."""
    if not conjunction.is_const():
        return None
    if conjunction.value:
        return OracleAnswer(verdict="sat", assignment={}, reason="constant")
    return OracleAnswer(verdict="unsat", assignment=None, reason="constant")


def evaluation_answer(manager: TermManager,
                      conjunction: Term) -> Optional[OracleAnswer]:
    """Try concrete assignments; return a verified SAT answer or None."""
    variables = collect_variables(conjunction)
    if not variables or len(variables) > MAX_GUESS_VARIABLES:
        return None
    names = sorted(variables)
    for pattern_index in range(len(GUESS_PATTERNS)):
        assignment: Dict[str, int] = {}
        for offset, name in enumerate(names):
            sort = variables[name]
            width = sort.width if sort.is_bv() else 1
            # Rotate patterns across variables so mixtures get explored.
            chosen = GUESS_PATTERNS[
                (pattern_index + offset) % len(GUESS_PATTERNS)]
            value = chosen(width) & ((1 << width) - 1)
            assignment[name] = value if sort.is_bv() else value & 1
        try:
            if manager.evaluate(conjunction, assignment):
                return OracleAnswer(verdict="sat", assignment=assignment,
                                    reason="evaluation")
        except (KeyError, NotImplementedError):
            return None
    return None


def preanswer(manager: TermManager,
              conjunction: Term) -> Optional[OracleAnswer]:
    """Run the oracle chain; None means the query needs a real backend."""
    answer = constant_answer(conjunction)
    if answer is not None:
        return answer
    return evaluation_answer(manager, conjunction)
