"""A scaled model of the Debian Wheezy archive (§6.5, Figures 17 and 18).

The paper runs STACK over all 17,432 Debian Wheezy packages (8,575 of which
contain C/C++ code) using roughly 150 CPU-days.  The reproduction models the
archive instead: packages are generated deterministically, with the fraction
containing unstable code and the mix of undefined-behavior kinds calibrated
to the paper's published counts.  Experiments analyze a sample of packages
with the real checker and extrapolate to archive scale; EXPERIMENTS.md
records the sample size next to every extrapolated number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.ubconditions import UBKind
from repro.corpus.snippets import STABLE_SNIPPETS, Snippet, snippets_for_kind

#: Constants reported by the paper (§6.5, Figures 17 and 18).
PAPER_TOTAL_PACKAGES = 17_432
PAPER_C_PACKAGES = 8_575
PAPER_PACKAGES_WITH_REPORTS = 3_471
PAPER_REPORTS_BY_ALGORITHM = {
    "elimination": 23_969,
    "simplification (boolean oracle)": 47_040,
    "simplification (algebra oracle)": 871,
}
PAPER_PACKAGES_BY_ALGORITHM = {
    "elimination": 2_079,
    "simplification (boolean oracle)": 2_672,
    "simplification (algebra oracle)": 294,
}
PAPER_REPORTS_BY_KIND = {
    UBKind.NULL_DEREF: 59_230,
    UBKind.BUFFER_OVERFLOW: 5_795,
    UBKind.SIGNED_OVERFLOW: 4_364,
    UBKind.POINTER_OVERFLOW: 3_680,
    UBKind.OVERSIZED_SHIFT: 594,
    UBKind.MEMCPY_OVERLAP: 227,
    UBKind.DIV_BY_ZERO: 226,
    UBKind.USE_AFTER_FREE: 156,
    UBKind.ABS_OVERFLOW: 86,
    UBKind.USE_AFTER_REALLOC: 22,
}
PAPER_SINGLE_UB_REPORTS = 69_301
PAPER_MULTI_UB_REPORTS = 2_579
PAPER_MAX_UB_CONDITIONS = 8


@dataclass
class SyntheticPackage:
    """One synthetic Debian package: a handful of translation units."""

    name: str
    files: List[Tuple[str, str, Optional[Snippet]]] = field(default_factory=list)

    @property
    def seeded_snippets(self) -> List[Snippet]:
        return [snippet for _name, _src, snippet in self.files if snippet is not None]

    @property
    def has_seeded_unstable_code(self) -> bool:
        return bool(self.seeded_snippets)


class DebianArchiveModel:
    """Deterministic generator of archive-shaped synthetic packages."""

    def __init__(self, seed: int = 2013,
                 unstable_package_fraction: Optional[float] = None) -> None:
        self.seed = seed
        if unstable_package_fraction is None:
            unstable_package_fraction = PAPER_PACKAGES_WITH_REPORTS / PAPER_C_PACKAGES
        self.unstable_package_fraction = unstable_package_fraction
        self._kind_weights = self._kind_weight_table()

    @staticmethod
    def _kind_weight_table() -> List[Tuple[UBKind, float]]:
        total = sum(PAPER_REPORTS_BY_KIND.values())
        return [(kind, count / total) for kind, count in PAPER_REPORTS_BY_KIND.items()]

    # -- package generation -----------------------------------------------------------

    def generate_package(self, index: int) -> SyntheticPackage:
        """Deterministically generate package ``index`` of the archive."""
        rng = random.Random(f"{self.seed}:{index}")
        name = f"pkg{index:05d}"
        package = SyntheticPackage(name=name)

        stable_files = rng.randint(1, 3)
        for file_index in range(stable_files):
            snippet = STABLE_SNIPPETS[rng.randrange(len(STABLE_SNIPPETS))]
            suffix = f"{name}_s{file_index}"
            package.files.append(
                (f"{name}/util_{file_index}.c", snippet.render(suffix), None))

        if rng.random() < self.unstable_package_fraction:
            seeded = rng.randint(1, 3)
            for bug_index in range(seeded):
                kind = self._pick_kind(rng)
                candidates = snippets_for_kind(kind)
                snippet = candidates[rng.randrange(len(candidates))]
                suffix = f"{name}_b{bug_index}"
                package.files.append(
                    (f"{name}/{snippet.name}_{bug_index}.c",
                     snippet.render(suffix), snippet))
        return package

    def _pick_kind(self, rng: random.Random) -> UBKind:
        roll = rng.random()
        cumulative = 0.0
        for kind, weight in self._kind_weights:
            cumulative += weight
            if roll <= cumulative:
                return kind
        return self._kind_weights[-1][0]

    def sample_packages(self, count: int, start: int = 0) -> List[SyntheticPackage]:
        """A deterministic sample of ``count`` packages."""
        return [self.generate_package(index) for index in range(start, start + count)]

    # -- extrapolation helpers -----------------------------------------------------------

    @staticmethod
    def scale_to_archive(sample_value: float, sample_size: int,
                         population: int = PAPER_C_PACKAGES) -> float:
        """Extrapolate a per-sample count to the full 8,575-package archive."""
        if sample_size <= 0:
            return 0.0
        return sample_value * (population / sample_size)
