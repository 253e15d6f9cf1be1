"""Stage-6 experiment: auto-repair rate over the snippet corpus.

The paper's case studies (§6.2) all end the same way: STACK diagnoses the
unstable fragment and a developer writes the patch by hand.  This driver
measures how much of that last step the repair subsystem closes
mechanically: every unstable snippet is checked with
``CheckerConfig(repair=True)``, and the per-snippet table reports how many
diagnostics received a patch that cleared all three verifier gates, how
many were rejected (with per-gate counts), and how many had no matching
template.

Run from the shell (the CI smoke job uses ``--fast``)::

    PYTHONPATH=src python -m repro.experiments.repair --fast
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.checker import CheckerConfig
from repro.core.report import Diagnostic
from repro.corpus.snippets import SNIPPETS, Snippet
from repro.experiments.common import render_table


@dataclass
class SnippetRepairRow:
    """Stage-6 verdicts for one snippet template."""

    snippet: str
    diagnostics: int
    repaired: int
    rejected: int
    no_template: int
    templates: str = ""              # comma-joined template names used


@dataclass
class RepairExperimentResult:
    """Repair rates plus the per-gate rejection tallies."""

    rows: List[SnippetRepairRow] = field(default_factory=list)
    gate_rejections: Dict[str, int] = field(default_factory=dict)
    #: Every diagnostic of the run (the benchmark audits their gates).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    repair_time: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(r.diagnostics for r in self.rows)

    @property
    def repaired(self) -> int:
        return sum(r.repaired for r in self.rows)

    @property
    def rejected(self) -> int:
        return sum(r.rejected for r in self.rows)

    @property
    def no_template(self) -> int:
        return sum(r.no_template for r in self.rows)

    @property
    def repair_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return self.repaired / self.attempted

    def render(self) -> str:
        headers = ["snippet", "diagnostics", "repaired", "rejected",
                   "no template", "templates"]
        rows = [[r.snippet, r.diagnostics, r.repaired, r.rejected,
                 r.no_template, r.templates] for r in self.rows]
        rows.append(["TOTAL", self.attempted, self.repaired, self.rejected,
                     self.no_template, ""])
        parts = [render_table(
            headers, rows,
            title="Stage-6 auto-repair over the snippet corpus "
                  f"(repair rate {100.0 * self.repair_rate:.1f}%, "
                  f"{self.repair_time:.1f}s in stage 6)")]
        rejections = ", ".join(f"{gate}: {count}" for gate, count
                               in sorted(self.gate_rejections.items()))
        parts.append(f"candidate rejections by gate — "
                     f"{rejections or 'none'}")
        return "\n".join(parts)


#: A representative cross-section for smoke runs: each template family and
#: one known template gap, at minimal solver cost.
FAST_SNIPPET_NAMES = (
    "fig1_pointer_overflow_check",       # pointer-bound-check
    "fig2_null_check_after_deref",       # reorder-guard
    "fig13_plan9_pdec_negation",         # widen-signed-arithmetic
    "ext4_oversized_shift_check",        # guard-oversized-shift
    "division_by_zero_late_check",       # reorder-guard (div)
    "fig10_postgres_division_overflow",  # no template (honest gap)
)


def run_repair_experiment(workers: int = 0,
                          config: Optional[CheckerConfig] = None,
                          fast: bool = False,
                          snippets: Optional[Sequence[Snippet]] = None,
                          ) -> RepairExperimentResult:
    """Repair every unstable-snippet diagnostic and tabulate the verdicts."""
    from repro.engine.engine import CheckEngine, EngineConfig

    if config is None:
        config = CheckerConfig(repair=True)
    if snippets is None:
        if fast:
            snippets = [s for s in SNIPPETS if s.name in FAST_SNIPPET_NAMES]
        else:
            snippets = SNIPPETS

    result = RepairExperimentResult()
    engine = CheckEngine(EngineConfig(workers=workers, checker=config))
    outcome = engine.check_corpus(
        (snippet.name, snippet.render("t")) for snippet in snippets)
    for snippet, unit in zip(snippets, outcome.results):
        report = unit.report
        templates = sorted({bug.repair.template for bug in report.bugs
                            if bug.repair is not None and bug.repair.repaired})
        result.rows.append(SnippetRepairRow(
            snippet=snippet.name,
            diagnostics=report.repairs_attempted,
            repaired=report.repairs_succeeded,
            rejected=report.repairs_rejected,
            no_template=report.repairs_no_template,
            templates=",".join(templates),
        ))
        result.diagnostics.extend(report.bugs)
    stats = outcome.stats
    result.gate_rejections = {
        "equivalence": stats.repair_gate_equivalence_rejects,
        "recheck": stats.repair_gate_recheck_rejects,
        "replay": stats.repair_gate_replay_rejects,
    }
    result.repair_time = stats.repair_time
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.repair",
        description="Auto-repair rate over the snippet corpus (stage 6).")
    parser.add_argument("--fast", action="store_true",
                        help="smoke mode: a representative snippet subset")
    parser.add_argument("--workers", type=int, default=0,
                        help="engine worker processes (default: sequential)")
    args = parser.parse_args(argv)
    result = run_repair_experiment(workers=args.workers, fast=args.fast)
    print(result.render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
