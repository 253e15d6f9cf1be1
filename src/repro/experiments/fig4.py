"""Figure 4: which compilers discard which unstable checks, and at what level."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.compilers.survey import (
    SurveyResult,
    run_survey,
    survey_matrix,
)


@dataclass
class Figure4Result:
    """The regenerated matrix together with the comparison to the paper."""

    survey: SurveyResult
    mismatches: List[str] = field(default_factory=list)

    @property
    def matches_paper(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = ["Figure 4: lowest -O level at which each compiler discards each check",
                 "",
                 survey_matrix(self.survey),
                 ""]
        if self.matches_paper:
            lines.append("All cells match the paper's Figure 4.")
        else:
            lines.append(f"{len(self.mismatches)} cells differ from the paper:")
            lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def run_figure4() -> Figure4Result:
    """Run the compiler survey and compare every cell against the paper."""
    survey = run_survey()
    return Figure4Result(survey=survey, mismatches=survey.mismatches())
