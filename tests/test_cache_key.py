"""Identity tests for the memoized solver-query cache key.

``canonical_query_key`` keeps per-term records in a tid-keyed memo and
hashes its refinement rounds with built-in ``hash()`` over int tuples.  The
key values differ from the plain blake2b walk it replaced (kept verbatim in
``cache_key_reference.py``), but they must group queries exactly as it did:
two goals share a new key iff they share a reference key.  The goals are
all those a :class:`~repro.core.queries.QueryEngine` keys while checking
the snippet corpus and a fixed-seed generated batch covering every MiniC
scenario, plus a copy of each rebuilt with its operands created in the
other order.  Set ``REPRO_PROPERTY_SEED`` to add a seed, as for the other
property suites.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import repro.engine.cache as cache_module
from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.cache import SolverQueryCache, canonical_query_key
from repro.engine.workunit import WorkUnit, check_work_unit
from repro.fuzz.generator import ALL_SCENARIOS, ProgramGenerator
from repro.solver.terms import TermManager

from cache_key_reference import canonical_query_key as reference_key

SEEDS = [0]
if os.environ.get("REPRO_PROPERTY_SEED"):
    SEEDS.append(int(os.environ["REPRO_PROPERTY_SEED"]))

MINIC_SCENARIOS = [s for s in ALL_SCENARIOS if not s.startswith("ir_")]


def corpus_units(seed):
    """The 30 snippets plus two generated programs per MiniC scenario."""
    units = [WorkUnit(name=s.name, source=s.render("k"))
             for s in SNIPPETS + STABLE_SNIPPETS]
    generator = ProgramGenerator(random.Random(seed), MINIC_SCENARIOS)
    for index in range(2 * len(MINIC_SCENARIOS)):
        program = generator.generate(
            index, MINIC_SCENARIOS[index % len(MINIC_SCENARIOS)])
        units.append(WorkUnit(name=program.name, source=program.source))
    return units


@pytest.fixture(scope="module", params=SEEDS)
def keyed_goals(request):
    """``(engine memo, goal, key)`` for every query keyed on the corpus."""
    calls = []
    production = cache_module.canonical_query_key

    def recording(goal, memo=None):
        key = production(goal, memo)
        calls.append((memo, list(goal), key))
        return key

    cache = SolverQueryCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache_module, "canonical_query_key", recording)
        for unit in corpus_units(request.param):
            check_work_unit(unit, CheckerConfig(), cache=cache,
                            drain_cache=False)
    assert len({id(memo) for memo, _, _ in calls}) > 30
    return calls


def rebuilt_backwards(goal):
    """``goal`` rebuilt in a new manager, visiting operands last to first.

    The manager orders commutative operands by creation order, so the copy
    usually lists them the other way round: only the colours can then put
    them back in the canonical order.
    """
    manager = TermManager()
    copies = {}
    for root in goal:
        stack = [(root, False)]
        while stack:
            term, ready = stack.pop()
            if term.tid in copies:
                continue
            if not ready:
                stack.append((term, True))
                stack.extend((arg, False) for arg in term.args)
                continue
            args = tuple(copies[arg.tid] for arg in term.args)
            copies[term.tid] = manager._mk(term.op, term.sort, args,
                                           term.attrs)
    return [copies[root.tid] for root in goal]


def test_keys_group_goals_exactly_as_the_reference(keyed_goals):
    to_new, to_reference = {}, {}
    goals = [(goal, key) for _, goal, key in keyed_goals]
    goals += [(copy, canonical_query_key(copy)) for copy in
              (rebuilt_backwards(goal) for _, goal, _ in keyed_goals)]
    for goal, key in goals:
        old = reference_key(goal)
        assert canonical_query_key(goal) == key
        assert to_new.setdefault(old, key) == key, "reference group split"
        assert to_reference.setdefault(key, old) == old, "groups merged"
    # Replays across functions happen: the corpus has repeated questions.
    assert len(to_new) < len(keyed_goals)


def test_shared_memo_matches_fresh_memo_in_any_order(keyed_goals):
    by_engine = {}
    for memo, goal, key in keyed_goals:
        by_engine.setdefault(id(memo), []).append((goal, key))
    rng = random.Random(len(keyed_goals))
    for goals in by_engine.values():
        rng.shuffle(goals)
        shared = {}
        for goal, key in goals:
            assert canonical_query_key(goal, shared) == key
            assert canonical_query_key(goal) == key


_PRINT_KEYS = """
import json
from repro.core.checker import CheckerConfig
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.cache import SolverQueryCache
from repro.engine.workunit import WorkUnit, check_work_unit
cache = SolverQueryCache()
for s in SNIPPETS + STABLE_SNIPPETS:
    check_work_unit(WorkUnit(name=s.name, source=s.render("h")),
                    CheckerConfig(), cache=cache, drain_cache=False)
print(json.dumps(sorted(entry["key"] for entry in cache.snapshot())))
"""


def test_keys_do_not_depend_on_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    runs = []
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run([sys.executable, "-c", _PRINT_KEYS], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] and runs[0] == runs[1]
