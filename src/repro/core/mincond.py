"""Minimal UB-condition set computation (Figure 8 of the paper).

Given an unsatisfiable query ``Q_e = H ∧ ⋀_{d∈dom(e)} ¬U_d`` the checker
reports only the UB conditions that actually matter: those whose removal
makes the query satisfiable again.  This is the greedy algorithm of Figure 8;
it costs one additional query per dominating UB condition.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.queries import QueryEngine
from repro.core.report import MinimalUBSet
from repro.core.ubconditions import UBCondition
from repro.solver.terms import Term


def minimal_ub_conditions(
    engine: QueryEngine,
    hypothesis: Sequence[Term],
    conditions: Sequence[UBCondition],
    max_conditions: int = 32,
) -> MinimalUBSet:
    """Compute the minimal set of UB conditions needed for unsatisfiability.

    ``hypothesis`` is the H term(s) of the query (reachability and, for
    simplification, the disagreement term); ``conditions`` are the dominating
    UB conditions whose negations complete the query.  For each condition we
    re-run the query with that condition masked out; if the query becomes
    satisfiable the condition is essential and enters the minimal set.
    """
    manager = engine.encoder.manager
    # Several instructions can carry the *same* UB condition term (e.g. the
    # two identical `buf + len` computations in Figure 1).  Masking one of
    # them would leave the duplicate in place and wrongly conclude the
    # condition is inessential, so deduplicate by term identity first.
    relevant: List[UBCondition] = []
    seen_terms = set()
    for condition in conditions:
        if _is_trivially_irrelevant(condition):
            continue
        if condition.condition.tid in seen_terms:
            continue
        seen_terms.add(condition.condition.tid)
        relevant.append(condition)
    if len(relevant) > max_conditions:
        relevant = relevant[:max_conditions]

    # Every masking query shares the hypothesis H; one incremental context
    # asserts it once and each masked assumption set arrives as a delta.
    essential: List[UBCondition] = []
    with engine.context(list(hypothesis)) as ctx:
        for masked in relevant:
            assumption = manager.true()
            for other in relevant:
                if other is masked:
                    continue
                assumption = manager.and_(assumption,
                                          manager.not_(other.condition))
            result = ctx.is_unsat([assumption])
            if result is False:
                # Without this condition the code is no longer dead: essential.
                essential.append(masked)
    return MinimalUBSet(essential)


def _is_trivially_irrelevant(condition: UBCondition) -> bool:
    """Skip conditions that simplified to constant false at build time."""
    term = condition.condition
    return term.is_const() and not term.value
