"""Classification of unstable-code reports (§6.2 of the paper).

The paper manually classifies STACK's reports into four categories.  This
module reproduces the taxonomy with a rule-based classifier that uses (a) the
undefined-behavior kinds in the report's minimal UB set, (b) whether the
undefined behavior executes unconditionally before the flagged check, and
(c) whether any of the simulated production compilers (:mod:`repro.compilers`)
is known to discard the pattern.  Corpus snippets carry ground-truth labels
used by the precision experiment (§6.3); the classifier is the fallback for
code without labels.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from repro.core.report import Diagnostic
from repro.core.ubconditions import UBKind


class BugClass(enum.Enum):
    """The four §6.2 report categories."""

    NON_OPTIMIZATION = "non-optimization bug"
    URGENT_OPTIMIZATION = "urgent optimization bug"
    TIME_BOMB = "time bomb"
    REDUNDANT = "redundant code"

    @property
    def is_real_bug(self) -> bool:
        return self is not BugClass.REDUNDANT


#: UB kinds that mainstream 2013-era compilers already exploit aggressively at
#: default optimization levels (§2.3's survey): checks that depend on them
#: being absent are *urgent*.
_URGENT_KINDS = {
    UBKind.SIGNED_OVERFLOW,
    UBKind.POINTER_OVERFLOW,
    UBKind.NULL_DEREF,
    UBKind.OVERSIZED_SHIFT,
    UBKind.ABS_OVERFLOW,
}

#: UB kinds no surveyed production compiler currently exploits for this kind
#: of dead-code removal; reports that hinge only on them are time bombs.
_TIME_BOMB_KINDS = {
    UBKind.DIV_BY_ZERO,
    UBKind.MEMCPY_OVERLAP,
    UBKind.USE_AFTER_FREE,
    UBKind.USE_AFTER_REALLOC,
    UBKind.BUFFER_OVERFLOW,
}


def classify_diagnostic(diagnostic: Diagnostic,
                        known_label: Optional[BugClass] = None,
                        ub_executes_unconditionally: bool = False,
                        discarded_by_current_compiler: Optional[bool] = None) -> BugClass:
    """Assign one of the four §6.2 categories to a diagnostic.

    Parameters
    ----------
    known_label:
        Ground-truth label from the corpus, if available; returned unchanged.
    ub_executes_unconditionally:
        True when the undefined behavior in the minimal set is reached on
        every execution of the function (e.g. the dereference in Figure 2 or
        the division in Figure 10) — such code misbehaves even at ``-O0``,
        which is the paper's *non-optimization bug* category.
    discarded_by_current_compiler:
        Result of consulting the simulated compiler survey for the flagged
        pattern, when the caller has it; overrides the kind-based heuristic.
    """
    if known_label is not None:
        return known_label

    kinds = set(diagnostic.ub_kinds)
    if not kinds:
        # Nothing in the minimal set: the check is dead for reasons unrelated
        # to undefined behavior, i.e. ordinary redundant code.
        return BugClass.REDUNDANT

    if ub_executes_unconditionally and (
            UBKind.NULL_DEREF in kinds or UBKind.DIV_BY_ZERO in kinds
            or UBKind.SIGNED_OVERFLOW in kinds):
        return BugClass.NON_OPTIMIZATION

    if discarded_by_current_compiler is True:
        return BugClass.URGENT_OPTIMIZATION
    if discarded_by_current_compiler is False:
        return BugClass.TIME_BOMB

    if kinds & _URGENT_KINDS:
        return BugClass.URGENT_OPTIMIZATION
    if kinds & _TIME_BOMB_KINDS:
        return BugClass.TIME_BOMB
    return BugClass.TIME_BOMB


def classify_all(diagnostics: Iterable[Diagnostic]) -> None:
    """Classify diagnostics in place (fills ``Diagnostic.classification``)."""
    for diagnostic in diagnostics:
        label = classify_diagnostic(diagnostic)
        diagnostic.classification = label.value
