"""The systems of Figure 9 and their synthetic code bases.

The paper reports 160 new bugs across 23 systems (plus an "others" bucket),
broken down by undefined-behavior kind.  The row totals (bugs per system) and
the column totals (bugs per UB kind) are reproduced here exactly as printed.
The per-cell placement is not recoverable from the paper text layout, so
:func:`apportion_bug_matrix` derives a deterministic matrix that (a) matches
both margins exactly and (b) honours hints for the well-known cases the paper
discusses (Kerberos is null-pointer-heavy, Postgres signed-overflow-heavy,
the Linux kernel has the big shift/buffer counts, and so on).

:func:`generate_system_corpus` then turns one system's row into a synthetic
code base: a list of (filename, source) pairs seeded with unstable snippets
of the right kinds plus stable filler code, which the Figure 9 experiment
feeds to the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ubconditions import UBKind
from repro.corpus.snippets import STABLE_SNIPPETS, Snippet, snippets_for_kind

#: Column order of Figure 9.
FIGURE9_KINDS: Tuple[UBKind, ...] = (
    UBKind.POINTER_OVERFLOW,
    UBKind.NULL_DEREF,
    UBKind.SIGNED_OVERFLOW,
    UBKind.DIV_BY_ZERO,
    UBKind.OVERSIZED_SHIFT,
    UBKind.BUFFER_OVERFLOW,
    UBKind.ABS_OVERFLOW,
    UBKind.MEMCPY_OVERLAP,
    UBKind.USE_AFTER_FREE,
    UBKind.USE_AFTER_REALLOC,
)

#: Bugs per system exactly as the Figure 9 row totals report them.
FIGURE9_SYSTEM_TOTALS: Dict[str, int] = {
    "Binutils": 8,
    "e2fsprogs": 3,
    "FFmpeg+Libav": 21,
    "FreeType": 3,
    "GRUB": 2,
    "HiStar": 3,
    "Kerberos": 11,
    "libX11": 2,
    "libarchive": 2,
    "libgcrypt": 2,
    "Linux kernel": 32,
    "Mozilla": 3,
    "OpenAFS": 11,
    "plan9port": 3,
    "Postgres": 9,
    "Python": 5,
    "QEMU": 4,
    "Ruby+Rubinius": 2,
    "Sane": 8,
    "uClibc": 2,
    "VLC": 2,
    "Xen": 3,
    "Xpdf": 9,
    "others": 10,
}

#: Bugs per UB kind exactly as the Figure 9 column totals ("all" row).
FIGURE9_KIND_TOTALS: Dict[UBKind, int] = {
    UBKind.POINTER_OVERFLOW: 29,
    UBKind.NULL_DEREF: 44,
    UBKind.SIGNED_OVERFLOW: 23,
    UBKind.DIV_BY_ZERO: 7,
    UBKind.OVERSIZED_SHIFT: 23,
    UBKind.BUFFER_OVERFLOW: 14,
    UBKind.ABS_OVERFLOW: 1,
    UBKind.MEMCPY_OVERLAP: 7,
    UBKind.USE_AFTER_FREE: 9,
    UBKind.USE_AFTER_REALLOC: 3,
}

FIGURE9_TOTAL_BUGS = 160

#: Per-cell hints for the systems whose bug mix the paper describes in text.
_PLACEMENT_HINTS: Dict[str, Dict[UBKind, int]] = {
    "Kerberos": {UBKind.NULL_DEREF: 9, UBKind.POINTER_OVERFLOW: 1,
                 UBKind.USE_AFTER_FREE: 1},
    "Postgres": {UBKind.SIGNED_OVERFLOW: 7, UBKind.DIV_BY_ZERO: 1,
                 UBKind.NULL_DEREF: 1},
    "Linux kernel": {UBKind.OVERSIZED_SHIFT: 10, UBKind.BUFFER_OVERFLOW: 5,
                     UBKind.USE_AFTER_FREE: 5, UBKind.NULL_DEREF: 6,
                     UBKind.DIV_BY_ZERO: 2, UBKind.USE_AFTER_REALLOC: 2,
                     UBKind.POINTER_OVERFLOW: 1, UBKind.SIGNED_OVERFLOW: 1},
    "FFmpeg+Libav": {UBKind.POINTER_OVERFLOW: 9, UBKind.NULL_DEREF: 6,
                     UBKind.OVERSIZED_SHIFT: 3, UBKind.SIGNED_OVERFLOW: 1,
                     UBKind.DIV_BY_ZERO: 1, UBKind.MEMCPY_OVERLAP: 1},
    "Python": {UBKind.POINTER_OVERFLOW: 5},
    "FreeType": {UBKind.SIGNED_OVERFLOW: 3},
    "Binutils": {UBKind.POINTER_OVERFLOW: 6, UBKind.NULL_DEREF: 1,
                 UBKind.SIGNED_OVERFLOW: 1},
    "plan9port": {UBKind.SIGNED_OVERFLOW: 1, UBKind.POINTER_OVERFLOW: 1,
                  UBKind.BUFFER_OVERFLOW: 1},
    "others": {UBKind.ABS_OVERFLOW: 1},
}


@dataclass(frozen=True)
class SystemProfile:
    """One row of Figure 9."""

    name: str
    total_bugs: int
    breakdown: Dict[UBKind, int] = field(default_factory=dict)

    def kinds(self) -> List[UBKind]:
        return [kind for kind, count in self.breakdown.items() if count > 0]


def apportion_bug_matrix(
    system_totals: Optional[Dict[str, int]] = None,
    kind_totals: Optional[Dict[UBKind, int]] = None,
    hints: Optional[Dict[str, Dict[UBKind, int]]] = None,
) -> Dict[str, Dict[UBKind, int]]:
    """Build a per-system/per-kind bug matrix matching both margins exactly.

    The hinted cells are placed first (clamped to what the margins allow);
    the remainder is filled greedily in a fixed order, so the result is
    deterministic.
    """
    system_totals = dict(FIGURE9_SYSTEM_TOTALS if system_totals is None else system_totals)
    kind_totals = dict(FIGURE9_KIND_TOTALS if kind_totals is None else kind_totals)
    hints = _PLACEMENT_HINTS if hints is None else hints

    remaining_system = dict(system_totals)
    remaining_kind = dict(kind_totals)
    matrix: Dict[str, Dict[UBKind, int]] = {
        name: {kind: 0 for kind in FIGURE9_KINDS} for name in system_totals
    }

    for name, hinted in hints.items():
        if name not in matrix:
            continue
        for kind, wanted in hinted.items():
            allowed = min(wanted, remaining_system[name], remaining_kind.get(kind, 0))
            matrix[name][kind] += allowed
            remaining_system[name] -= allowed
            remaining_kind[kind] -= allowed

    for name in system_totals:
        for kind in FIGURE9_KINDS:
            if remaining_system[name] == 0:
                break
            take = min(remaining_system[name], remaining_kind.get(kind, 0))
            if take <= 0:
                continue
            matrix[name][kind] += take
            remaining_system[name] -= take
            remaining_kind[kind] -= take

    leftover_systems = {n: c for n, c in remaining_system.items() if c}
    leftover_kinds = {k: c for k, c in remaining_kind.items() if c}
    if leftover_systems or leftover_kinds:
        raise ValueError(
            f"margins cannot be satisfied: systems={leftover_systems} "
            f"kinds={leftover_kinds}")
    return matrix


def build_system_profiles() -> List[SystemProfile]:
    """All Figure 9 systems with a consistent per-kind breakdown."""
    matrix = apportion_bug_matrix()
    profiles = []
    for name, total in FIGURE9_SYSTEM_TOTALS.items():
        breakdown = {kind: count for kind, count in matrix[name].items() if count}
        profiles.append(SystemProfile(name=name, total_bugs=total, breakdown=breakdown))
    return profiles


SYSTEMS: List[SystemProfile] = build_system_profiles()


def system_by_name(name: str) -> SystemProfile:
    for profile in SYSTEMS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown system {name!r}")


# ---------------------------------------------------------------------------
# Synthetic code-base generation
# ---------------------------------------------------------------------------

def _snippets_covering(kind: UBKind) -> List[Snippet]:
    candidates = snippets_for_kind(kind)
    if not candidates:
        raise ValueError(f"no snippet template covers UB kind {kind}")
    # Figure 9 counts confirmed (real) bugs, so the per-system corpora are
    # seeded from non-redundant templates whenever possible; redundant-code
    # reports are exercised separately by the §6.3 precision experiment.
    from repro.core.classify import BugClass

    real = [s for s in candidates if s.bug_class is not BugClass.REDUNDANT]
    return real if real else candidates


def generate_system_corpus(
    profile: SystemProfile,
    stable_files_per_bug: int = 1,
    files_per_unit: int = 1,
) -> List[Tuple[str, str, Optional[Snippet]]]:
    """Generate a synthetic code base for one system.

    Returns a list of ``(filename, source, seeded_snippet)`` triples.  Each
    seeded bug instance becomes its own translation unit (mirroring STACK's
    per-file analysis); stable filler units are interleaved so the corpus is
    not bug-only.  ``seeded_snippet`` is None for the filler units.
    """
    corpus: List[Tuple[str, str, Optional[Snippet]]] = []
    slug = profile.name.lower().replace("+", "_").replace(" ", "_")
    instance = 0
    for kind in FIGURE9_KINDS:
        count = profile.breakdown.get(kind, 0)
        candidates = _snippets_covering(kind) if count else []
        for occurrence in range(count):
            snippet = candidates[occurrence % len(candidates)]
            suffix = f"{slug}_{instance}"
            filename = f"{slug}/{snippet.name}_{instance}.c"
            corpus.append((filename, snippet.render(suffix), snippet))
            instance += 1

    stable_count = max(1, profile.total_bugs * stable_files_per_bug)
    for index in range(stable_count):
        snippet = STABLE_SNIPPETS[index % len(STABLE_SNIPPETS)]
        suffix = f"{slug}_ok_{index}"
        filename = f"{slug}/{snippet.name}_{index}.c"
        corpus.append((filename, snippet.render(suffix), None))
    return corpus
