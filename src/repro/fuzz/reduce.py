"""Delta-debugging reducer: from fuzzed finding to minimal reproducer.

Any program the campaign flags as unstable (and any anomaly — a miscompile
or an unsound patch — worth keeping) is worth keeping *small*.  This module
implements the classic ``ddmin`` algorithm over two granularities:

* **MiniC sources** — candidates drop subsets of source lines and are
  recompiled from scratch (:func:`reduce_source`),
* **IR modules** — candidates drop subsets of non-terminator instructions
  from a deterministic rebuild of the module (:func:`reduce_module`).

A candidate is *interesting* only when it still compiles, passes the IR
verifier (:mod:`repro.ir.verifier`) cleanly, and the checker still reports
at least one diagnostic whose UB kinds intersect the original finding's —
so every accepted intermediate, and therefore the final reproducer, still
reproduces the verdict.  The checker is re-run at every shrink step; a
shared :class:`~repro.engine.cache.SolverQueryCache` makes those re-runs
cheap because shrunken candidates share most of their solver queries.

Reduction runs ddmin to a fixpoint, which makes it idempotent: reducing an
already-reduced case performs one pass that removes nothing and returns the
input unchanged (the property ``tests/test_fuzz.py`` pins down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.checker import CheckerConfig, StackChecker
from repro.core.ubconditions import UBKind
from repro.ir.function import Module
from repro.ir.instructions import Phi
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module


@dataclass
class ReducedCase:
    """A minimized reproducer plus the evidence trail that produced it."""

    source: str                      # minimized MiniC source (or printed IR)
    mode: str                        # "minic" | "ir"
    kinds: Tuple[UBKind, ...]        # UB kinds the reproducer still triggers
    elements_before: int             # lines (minic) / instructions (ir)
    elements_after: int
    checker_runs: int = 0
    #: Every accepted intermediate candidate, in order; tests assert each
    #: one still parses and verifies cleanly.
    trajectory: List[str] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return self.elements_before - self.elements_after


def _reduction_config(base: Optional[CheckerConfig] = None) -> CheckerConfig:
    """The cheap, deterministic checker configuration reduction runs under.

    Minimal UB sets, classification, witnesses, and repair contribute
    nothing to the interestingness predicate, so they are switched off.  The
    propagation budget does not depend on the clock, so every candidate's
    verdict is reproducible.
    """
    import dataclasses

    base = base if base is not None else CheckerConfig()
    return dataclasses.replace(
        base, minimize_ub_sets=False, classify=False,
        validate_witnesses=False, repair=False)


def ddmin(elements: Sequence[int],
          interesting: Callable[[Sequence[int]], bool]) -> List[int]:
    """Zeller/Hildebrandt ddmin over index lists (complement reduction).

    ``elements`` must be interesting as given; the result is a subsequence
    that is 1-minimal with respect to chunk removal at every granularity
    down to single elements.
    """
    current = list(elements)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and interesting(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(current), granularity * 2)
    # Polish: aligned chunks cannot remove pairs/triples that straddle a
    # chunk boundary (e.g. the `{`/`}` shell of an emptied function), so
    # slide small windows over every offset until nothing more comes out.
    window = 2
    while window <= 3 and len(current) > window:
        for start in range(0, len(current) - window + 1):
            candidate = current[:start] + current[start + window:]
            if candidate and interesting(candidate):
                current = candidate
                window = 2
                break
        else:
            window += 1
    return current


# ---------------------------------------------------------------------------
# MiniC source reduction
# ---------------------------------------------------------------------------


def _check_kinds(checker: StackChecker, module: Module) -> Set[UBKind]:
    report = checker.check_module(module)
    return {kind for bug in report.bugs for kind in bug.ub_kinds}


def reduce_source(source: str, *, filename: str = "<fuzz>",
                  kinds: Optional[Sequence[UBKind]] = None,
                  config: Optional[CheckerConfig] = None,
                  cache: Optional["SolverQueryCache"] = None,
                  ) -> Optional[ReducedCase]:
    """Delta-debug a MiniC translation unit down to a minimal reproducer.

    Returns ``None`` when the original does not reproduce (no diagnostic,
    or none matching ``kinds``).  Candidates that fail to compile, fail the
    IR verifier, or lose the matching diagnostic are rejected; the checker
    re-runs for every candidate that gets this far.
    """
    from repro.api import compile_source

    checker = StackChecker(_reduction_config(config), query_cache=cache)
    case = ReducedCase(source=source, mode="minic", kinds=(),
                       elements_before=0, elements_after=0)

    def observed_kinds(text: str) -> Optional[Set[UBKind]]:
        try:
            module = compile_source(text, filename=filename)
            case.checker_runs += 1
            return _check_kinds(checker, module)
        except Exception:
            return None

    original = observed_kinds(source)
    if not original:
        return None
    target = set(kinds) if kinds else set(original)
    if not (original & target):
        return None

    lines = source.split("\n")
    case.elements_before = len(lines)

    def interesting(kept: Sequence[int]) -> bool:
        candidate = "\n".join(lines[i] for i in kept)
        found = observed_kinds(candidate)
        if found is None or not (found & target):
            return False
        case.trajectory.append(candidate)
        return True

    indices = list(range(len(lines)))
    while True:                       # fixpoint => idempotent reduction
        shrunk = ddmin(indices, interesting)
        if len(shrunk) == len(indices):
            break
        indices = shrunk

    case.source = "\n".join(lines[i] for i in indices)
    case.elements_after = len(indices)
    case.kinds = tuple(sorted(original & target, key=lambda k: k.value))
    return case


# ---------------------------------------------------------------------------
# IR module reduction
# ---------------------------------------------------------------------------


def reduce_module(build: Callable[[], Module], *,
                  kinds: Optional[Sequence[UBKind]] = None,
                  config: Optional[CheckerConfig] = None,
                  cache: Optional["SolverQueryCache"] = None,
                  ) -> Optional[ReducedCase]:
    """Delta-debug an IR module by dropping instructions.

    ``build`` returns a fresh module each call (the checker mutates what it
    analyzes).  Candidates clone the module, delete a subset of
    non-terminator, non-phi instructions, and must stay verifier-clean —
    deleting an instruction that still has users fails verification and is
    rejected, which is what steers ddmin toward genuinely dead code.
    """
    checker = StackChecker(_reduction_config(config), query_cache=cache)
    baseline = build()
    positions: List[Tuple[int, int, int]] = []       # (fn, block, instruction)
    for f_index, function in enumerate(baseline.defined_functions()):
        for b_index, block in enumerate(function.blocks):
            for i_index, inst in enumerate(block.instructions):
                if inst.is_terminator() or isinstance(inst, Phi):
                    continue
                positions.append((f_index, b_index, i_index))

    case = ReducedCase(source="", mode="ir", kinds=(),
                       elements_before=len(positions), elements_after=0)

    def candidate_module(kept: Sequence[int]) -> Module:
        keep = {positions[i] for i in kept}
        module = build()
        for f_index, function in enumerate(module.defined_functions()):
            for b_index, block in enumerate(function.blocks):
                block.instructions = [
                    inst for i_index, inst in enumerate(block.instructions)
                    if inst.is_terminator() or isinstance(inst, Phi)
                    or (f_index, b_index, i_index) in keep]
        return module

    def observed_kinds(module: Module) -> Optional[Set[UBKind]]:
        if verify_module(module, raise_on_error=False):
            return None
        try:
            case.checker_runs += 1
            return _check_kinds(checker, module)
        except Exception:
            return None

    original = observed_kinds(candidate_module(range(len(positions))))
    if not original:
        return None
    target = set(kinds) if kinds else set(original)
    if not (original & target):
        return None

    def interesting(kept: Sequence[int]) -> bool:
        module = candidate_module(kept)
        found = observed_kinds(module)
        if found is None or not (found & target):
            return False
        case.trajectory.append(print_module(module))
        return True

    indices = list(range(len(positions)))
    while True:
        shrunk = ddmin(indices, interesting)
        if len(shrunk) == len(indices):
            break
        indices = shrunk

    case.source = print_module(candidate_module(indices))
    case.elements_after = len(indices)
    case.kinds = tuple(sorted(original & target, key=lambda k: k.value))
    return case
