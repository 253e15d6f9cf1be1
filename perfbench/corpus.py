"""The benchmark corpus, derived from the workload seed.

Every workload checks the same kind of corpus: the 30 snippet templates of
:mod:`repro.corpus.snippets` (22 unstable, 8 stable) plus a seeded draw of
MiniC programs from :class:`repro.fuzz.generator.ProgramGenerator`, its
MiniC scenarios in turn.  Each
template carries its known answer (``Snippet.is_unstable`` or
``GeneratedProgram.expected_unstable``), against which every verdict is
checked.  Templates hold a ``{S}`` placeholder in every global identifier;
:func:`render` fills it with a tag, so one corpus can be re-rendered with
fresh identifiers as often as a workload needs.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List, Tuple

#: Generated programs drawn per corpus, on top of the 30 snippets.
FUZZ_PROGRAMS = 120

#: Added to the generator's program index, so the identifier tag the
#: generator renders ("s100017") cannot occur anywhere else in a program.
_INDEX_BASE = 100_000


@dataclass(frozen=True)
class Template:
    """One translation unit of the corpus, with its known answer."""

    name: str
    template: str
    expected_unstable: bool

    def render(self, tag: str) -> str:
        return self.template.replace("{S}", tag)


@dataclass(frozen=True)
class Corpus:
    seed: int
    templates: Tuple[Template, ...]
    prefix: str              # seed-derived identifier prefix

    def index(self, name: str) -> int:
        """Position of the template called ``name``."""
        return next(index for index, template in enumerate(self.templates)
                    if template.name == name)

    def tag(self, round_: int, index: int) -> str:
        return f"{self.prefix}{round_}_{index}"

    def render(self, round_: int) -> List[Tuple[str, str]]:
        """``(name, source)`` units, identifiers fresh for each ``round_``."""
        return [(template.name, template.render(self.tag(round_, index)))
                for index, template in enumerate(self.templates)]


def build_corpus(seed: int) -> Corpus:
    """The corpus of ``seed``: snippets plus a fuzz draw, in seeded order."""
    from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
    from repro.fuzz.generator import ALL_SCENARIOS, ProgramGenerator

    # The ``ir_`` scenarios build IR only, which neither a daemon nor the
    # CLI can take.
    minic = [name for name in ALL_SCENARIOS if not name.startswith("ir_")]
    rng = random.Random(seed)
    templates = [Template(f"snippet-{snippet.name}", snippet.source_template,
                          snippet.is_unstable)
                 for snippet in SNIPPETS + STABLE_SNIPPETS]
    generator = ProgramGenerator(rng)
    for drawn in range(FUZZ_PROGRAMS):
        # Scenarios in turn, so the seed draws each program's parameters
        # but not the corpus's mix of scenarios, nor with it its cost.
        scenario = minic[drawn % len(minic)]
        program = generator.generate(_INDEX_BASE + drawn, scenario)
        template = program.template
        if program.mode != "minic" or "{S}" not in template:
            raise ValueError(f"{program.name}: no source to re-render")
        templates.append(Template(program.name, template,
                                  program.expected_unstable))
    rng.shuffle(templates)
    prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    return Corpus(seed=seed, templates=tuple(templates), prefix=prefix)
