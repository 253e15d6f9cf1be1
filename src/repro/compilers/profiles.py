"""Compiler profiles for the Figure 4 survey.

A :class:`CompilerProfile` records, for one compiler version, the lowest
optimization level at which each UB-exploiting capability becomes active
(``None`` means the compiler never uses that capability).  The numbers are
calibrated from the observations the paper reports in Figure 4; re-running
the survey executes the actual passes of :mod:`repro.compilers.passes` with
those capabilities enabled and re-derives the matrix mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.compilers.passes import Capability


@dataclass(frozen=True)
class CompilerProfile:
    """One compiler version's UB-exploitation behaviour."""

    name: str
    vendor: str
    year: int
    #: capability -> lowest -O level at which it is enabled (None = never).
    capability_levels: Dict[Capability, Optional[int]] = field(default_factory=dict)
    open_source: bool = False

    def capabilities_at(self, level: int) -> Set[Capability]:
        """Capabilities active at optimization level ``-O{level}``."""
        active = set()
        for capability, minimum in self.capability_levels.items():
            if minimum is not None and level >= minimum:
                active.add(capability)
        return active


def _profile(name: str, vendor: str, year: int, open_source: bool,
             pointer: Optional[int], null: Optional[int], signed: Optional[int],
             vrp: Optional[int], shift: Optional[int],
             abs_fold: Optional[int]) -> CompilerProfile:
    levels: Dict[Capability, Optional[int]] = {
        Capability.POINTER_OVERFLOW_FOLD: pointer,
        Capability.NULL_CHECK_ELIMINATION: null,
        Capability.SIGNED_OVERFLOW_FOLD: signed,
        Capability.VALUE_RANGE_SIGNED: vrp,
        Capability.OVERSIZED_SHIFT_FOLD: shift,
        Capability.ABS_FOLD: abs_fold,
        # Rewriting p + x < p into x < 0 accompanies pointer-overflow folding
        # in gcc and clang (§6.2.2).
        Capability.ALGEBRAIC_POINTER_REWRITE: pointer,
    }
    return CompilerProfile(name=name, vendor=vendor, year=year,
                           capability_levels=levels, open_source=open_source)


#: The 16 compiler versions of Figure 4.  Column order in the helper:
#: (pointer, null, signed, value-range, shift, abs).
ALL_PROFILES: List[CompilerProfile] = [
    _profile("gcc-2.95.3", "GNU", 2001, True, None, None, 1, None, None, None),
    _profile("gcc-3.4.6", "GNU", 2006, True, None, 2, 1, None, None, None),
    _profile("gcc-4.2.1", "GNU", 2007, True, 0, None, 2, None, None, 2),
    _profile("gcc-4.8.1", "GNU", 2013, True, 2, 2, 2, 2, None, 2),
    _profile("clang-1.0", "LLVM", 2009, True, 1, None, None, None, None, None),
    _profile("clang-3.3", "LLVM", 2013, True, 1, None, 1, None, 1, None),
    _profile("aCC-6.25", "HP", 2011, False, None, None, None, None, None, 3),
    _profile("armcc-5.02", "ARM", 2011, False, None, None, 2, None, None, None),
    _profile("icc-14.0.0", "Intel", 2013, False, None, 2, 1, 2, None, None),
    _profile("msvc-11.0", "Microsoft", 2012, False, None, 1, None, None, None, None),
    _profile("open64-4.5.2", "AMD", 2011, False, 1, None, 2, None, None, 2),
    _profile("pathcc-1.0.0", "PathScale", 2011, False, 1, None, 2, None, None, 2),
    _profile("suncc-5.12", "Oracle", 2011, False, None, 3, None, None, None, None),
    _profile("ti-7.4.2", "TI", 2012, False, 0, None, 0, 2, None, None),
    _profile("windriver-5.9.2", "Wind River", 2011, False, None, None, 0, None, None, None),
    _profile("xlc-12.1", "IBM", 2012, False, 3, None, None, None, None, None),
]


def profile_by_name(name: str) -> CompilerProfile:
    """Look up a profile; raises KeyError for unknown compiler names."""
    for profile in ALL_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown compiler profile {name!r}")


def modern_profiles() -> List[CompilerProfile]:
    """Profiles of the most recent compiler generation in the survey (2012+)."""
    return [p for p in ALL_PROFILES if p.year >= 2012]
