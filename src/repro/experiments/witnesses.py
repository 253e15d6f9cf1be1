"""Stage-5 experiments: witness confirmation and differential optimizer testing.

The paper's §6.1/§6.3 argument is that STACK's warnings are *real*: each one
corresponds to an input that makes optimized and unoptimized code diverge.
This driver makes that claim mechanical over the snippet corpus:

* **Witness validation** — check every unstable snippet with
  ``CheckerConfig(validate_witnesses=True)`` and tabulate the stage-5
  verdicts: a *confirmed* diagnostic's solver model concretely triggered
  the reported minimal-UB-set condition when replayed through the IR
  interpreter.
* **Differential testing** — execute every snippet (unstable *and* stable)
  under seeded inputs against each compiler profile's pipeline
  (:mod:`repro.exec.diff`).  Divergences must be UB-justified; a
  miscompile would mean a pass folded a check a well-defined execution
  relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api import compile_source
from repro.compilers.profiles import ALL_PROFILES, CompilerProfile
from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.exec.diff import DiffReport, run_differential
from repro.experiments.common import render_table


@dataclass
class SnippetWitnessRow:
    """Stage-5 verdicts for one snippet template."""

    snippet: str
    diagnostics: int
    confirmed: int
    unconfirmed: int
    inconclusive: int


@dataclass
class WitnessExperimentResult:
    """Confirmation rates plus the differential campaign."""

    rows: List[SnippetWitnessRow] = field(default_factory=list)
    diff: Optional[DiffReport] = None

    @property
    def validated(self) -> int:
        return sum(r.confirmed + r.unconfirmed + r.inconclusive
                   for r in self.rows)

    @property
    def confirmed(self) -> int:
        return sum(r.confirmed for r in self.rows)

    @property
    def unconfirmed(self) -> int:
        return sum(r.unconfirmed for r in self.rows)

    @property
    def inconclusive(self) -> int:
        return sum(r.inconclusive for r in self.rows)

    @property
    def confirmation_rate(self) -> float:
        if not self.validated:
            return 0.0
        return self.confirmed / self.validated

    @property
    def miscompiles(self) -> int:
        return 0 if self.diff is None else len(self.diff.miscompiles)

    def render(self) -> str:
        headers = ["snippet", "diagnostics", "confirmed", "unconfirmed",
                   "inconclusive"]
        rows = [[r.snippet, r.diagnostics, r.confirmed, r.unconfirmed,
                 r.inconclusive] for r in self.rows]
        rows.append(["TOTAL", sum(r.diagnostics for r in self.rows),
                     self.confirmed, self.unconfirmed, self.inconclusive])
        parts = [render_table(
            headers, rows,
            title="Stage-5 witness validation over the snippet corpus "
                  f"(confirmation rate "
                  f"{100.0 * self.confirmation_rate:.1f}%)")]
        if self.diff is not None:
            parts.append("")
            parts.append(self.diff.render())
        return "\n".join(parts)


def run_witness_validation(workers: int = 0,
                           config: Optional[CheckerConfig] = None,
                           ) -> WitnessExperimentResult:
    """Validate every unstable-snippet diagnostic with a concrete witness."""
    from repro.engine.engine import CheckEngine, EngineConfig

    if config is None:
        config = CheckerConfig(validate_witnesses=True)
    result = WitnessExperimentResult()
    engine = CheckEngine(EngineConfig(workers=workers, checker=config))
    outcome = engine.check_corpus(
        (snippet.name, snippet.render("t")) for snippet in SNIPPETS)
    for snippet, unit in zip(SNIPPETS, outcome.results):
        report = unit.report
        result.rows.append(SnippetWitnessRow(
            snippet=snippet.name,
            diagnostics=len(report.bugs),
            confirmed=report.witnesses_confirmed,
            unconfirmed=report.witnesses_unconfirmed,
            inconclusive=report.witnesses_inconclusive,
        ))
    return result


def run_differential_campaign(
        profiles: Optional[Sequence[CompilerProfile]] = None,
        level: int = 2, inputs_per_function: int = 6,
        seed: int = 0) -> DiffReport:
    """Differentially execute the full snippet corpus (unstable + stable)."""
    units = [(snippet.name, compile_source(snippet.render("t"),
                                           filename=f"{snippet.name}.c"))
             for snippet in SNIPPETS + STABLE_SNIPPETS]
    return run_differential(units, profiles=profiles, level=level,
                            inputs_per_function=inputs_per_function,
                            seed=seed)


def run_witness_experiment(workers: int = 0,
                           profiles: Optional[Sequence[CompilerProfile]] = None,
                           inputs_per_function: int = 6,
                           seed: int = 0) -> WitnessExperimentResult:
    """Both halves: witness validation plus the differential campaign."""
    result = run_witness_validation(workers=workers)
    result.diff = run_differential_campaign(
        profiles=profiles if profiles is not None else ALL_PROFILES,
        inputs_per_function=inputs_per_function, seed=seed)
    return result
