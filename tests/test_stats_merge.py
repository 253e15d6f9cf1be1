"""Every stats counter field must survive a merge (ISSUE satellite).

The legacy merge methods used to enumerate fields by hand, so adding a
counter to ``RunStats`` without touching ``merge`` silently dropped it on
parallel runs.  ``merge_counter_dataclass`` now derives the field list from
``dataclasses.fields`` — these tests synthesize distinct values for *every*
field by reflection, merge, and check the combination, so a future counter
that somehow escapes merging fails here by construction.
"""

import dataclasses

import pytest

from repro.core.queries import QueryStats
from repro.engine.engine import RunStats
from repro.obs.metrics import merge_counter_dataclass
from repro.solver.solver import SolverStats

#: (class, fields merged by max instead of addition) — mirrors each
#: ``merge()`` implementation.
CASES = [
    (RunStats, ("workers",)),
    (SolverStats, ()),
    (QueryStats, ()),
]


def synthesize(cls, base):
    """An instance with a distinct, nonzero value in every field."""
    obj = cls()
    for offset, field in enumerate(dataclasses.fields(obj), start=1):
        default = getattr(obj, field.name)
        if isinstance(default, bool):
            setattr(obj, field.name, base % 2 == 1)
        elif isinstance(default, (int, float)):
            setattr(obj, field.name, type(default)(base * 100 + offset))
        else:  # pragma: no cover - no such field today
            pytest.fail(f"unmergeable field type: {cls.__name__}.{field.name}")
    return obj


@pytest.mark.parametrize("cls,maxed", CASES,
                         ids=[cls.__name__ for cls, _ in CASES])
def test_every_field_is_merged(cls, maxed):
    left = synthesize(cls, 1)
    right = synthesize(cls, 2)
    expected_left = synthesize(cls, 1)    # pristine copies for the oracle
    expected_right = synthesize(cls, 2)

    left.merge(right)

    for field in dataclasses.fields(cls):
        a = getattr(expected_left, field.name)
        b = getattr(expected_right, field.name)
        got = getattr(left, field.name)
        if isinstance(a, bool):
            assert got == (a or b), field.name
        elif isinstance(a, (int, float)):
            want = max(a, b) if field.name in maxed else a + b
            assert got == want, field.name


@pytest.mark.parametrize("cls,maxed", CASES,
                         ids=[cls.__name__ for cls, _ in CASES])
def test_merge_into_defaults_preserves_other(cls, maxed):
    """Merging into a fresh instance reproduces the other side exactly."""
    target = cls()
    other = synthesize(cls, 3)
    target.merge(other)
    for field in dataclasses.fields(cls):
        assert getattr(target, field.name) == getattr(other, field.name), \
            field.name


def test_future_counter_fields_merge_automatically():
    """A field added tomorrow is merged with no code change: the guarantee."""

    @dataclasses.dataclass
    class Extended(SolverStats):
        brand_new_counter: int = 0

    left = Extended(brand_new_counter=3)
    right = Extended(brand_new_counter=4)
    left.merge(right)
    assert left.brand_new_counter == 7


def test_merge_counter_dataclass_rejects_non_dataclass():
    with pytest.raises(TypeError):
        merge_counter_dataclass(object(), object())
