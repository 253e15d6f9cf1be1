"""Every stats counter survives a merge, a total and a record.

The merge tests synthesize distinct values for *every* field of a stats
dataclass by reflection, merge, and check the combination, so a future
counter that escapes ``merge_counter_dataclass`` fails here by
construction.

The record counters are declared once, in ``repro.core.report.Counters``.
The schema tests give every counter a distinct value in each function of
two units, then check that ``BugReport.totals()`` and
``aggregate_results`` sum each one and that the function record, the unit
record and the run summary carry it.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.checker import CheckerConfig
from repro.core.report import (COUNTER_NAMES, SOLVER_COUNTERS, BugReport,
                               ClusterStats, Counters, FunctionReport)
from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine.engine import (CheckEngine, EngineConfig, RunStats,
                                 aggregate_results)
from repro.engine.sink import report_to_dict
from repro.engine.workunit import UnitResult
from repro.obs.metrics import merge_counter_dataclass
from repro.solver.solver import SolverStats

#: (class, fields merged by max instead of addition) — mirrors each
#: ``merge()`` implementation.
CASES = [
    (RunStats, ("workers",)),
    (SolverStats, ()),
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


# -- one counter schema ------------------------------------------------------------

#: The gate rejections are broken out in function and run records only.
GATE_COUNTERS = ("repair_gate_equivalence_rejects",
                 "repair_gate_recheck_rejects", "repair_gate_replay_rejects")


def counted_function(name, base):
    """A function report whose counter number ``i`` holds ``base + i``."""
    report = FunctionReport(function=name)
    for offset, counter in enumerate(COUNTER_NAMES, start=1):
        setattr(report, counter,
                type(getattr(report, counter))(base + offset))
    return report


def expected_sum(reports, counter):
    return sum(getattr(report, counter) for report in reports)


def leaves(record):
    """Every scalar value of a JSON record, nested blocks included."""
    if isinstance(record, dict):
        return [leaf for value in record.values() for leaf in leaves(value)]
    if isinstance(record, list):
        return [leaf for value in record for leaf in leaves(value)]
    return [record]


@pytest.fixture
def units():
    first = BugReport(module="first", functions=[
        counted_function("f", 1000), counted_function("g", 2000)])
    second = BugReport(module="second",
                       functions=[counted_function("h", 4000)])
    return [UnitResult(name="first", report=first),
            UnitResult(name="second", report=second)]


def test_counters_are_declared_once():
    assert COUNTER_NAMES == tuple(field.name for field
                                  in dataclasses.fields(Counters))
    assert len(COUNTER_NAMES) == 23
    assert issubclass(FunctionReport, Counters)
    assert issubclass(RunStats, Counters)
    for name in ("function", "diagnostics", "suppressed_compiler_origin",
                 "cluster_propagated"):
        assert name not in COUNTER_NAMES
    solver_fields = {field.name for field in dataclasses.fields(SolverStats)}
    for name in SOLVER_COUNTERS:
        assert name in COUNTER_NAMES and name in solver_fields, name
    # The checker counts queries, cache hits included; the solver does not.
    assert "queries" not in SOLVER_COUNTERS
    assert issubclass(RunStats, ClusterStats)


def test_totals_sum_every_counter(units):
    report = units[0].report
    totals = report.totals()
    for counter in COUNTER_NAMES:
        want = expected_sum(report.functions, counter)
        assert getattr(totals, counter) == want, counter
        assert getattr(report, counter) == want, counter
    assert report.solver_queries == totals.queries - totals.cache_hits
    assert report.witnesses_validated == (totals.witnesses_confirmed
                                          + totals.witnesses_unconfirmed
                                          + totals.witnesses_inconclusive)
    with pytest.raises(AttributeError):
        report.not_a_counter


def test_aggregate_results_sums_every_counter(units):
    functions = [fr for unit in units for fr in unit.report.functions]
    stats = aggregate_results(units, wall_clock=1.0)
    assert (stats.units, stats.functions) == (2, 3)
    for counter in COUNTER_NAMES:
        assert getattr(stats, counter) == expected_sum(functions, counter), \
            counter
    assert stats.solver_queries == stats.queries - stats.cache_hits


def test_function_records_carry_every_counter(units):
    for unit in units:
        record = report_to_dict(unit.name, unit.report)
        for function, report in zip(record["functions"],
                                    unit.report.functions):
            values = leaves(function)
            for counter in COUNTER_NAMES:
                assert getattr(report, counter) in values, counter


def test_unit_record_carries_every_counter_but_gate_rejections(units):
    report = units[0].report
    record = report_to_dict("first", report)
    for counter in COUNTER_NAMES:
        if counter in GATE_COUNTERS:
            assert counter not in record
        else:
            assert record[counter] == expected_sum(report.functions,
                                                   counter), counter


def test_run_summary_carries_every_counter(units):
    functions = [fr for unit in units for fr in unit.report.functions]
    values = leaves(aggregate_results(units, wall_clock=1.0).as_dict())
    for counter in COUNTER_NAMES:
        assert expected_sum(functions, counter) in values, counter


def test_stage_counters_match_the_attached_reports():
    """Each function's witness and repair counters tally the reports that
    stages 5 and 6 attached to its diagnostics."""
    units = [(snippet.name, snippet.render("v"))
             for snippet in SNIPPETS + STABLE_SNIPPETS]
    config = CheckerConfig(validate_witnesses=True, repair=True)
    result = CheckEngine(EngineConfig(checker=config, cache_enabled=False)) \
        .check_corpus(units)
    functions = [fr for report in result.reports for fr in report.functions]
    for fr in functions:
        verdicts = Counter(d.witness.verdict.value for d in fr.diagnostics)
        assert (fr.witnesses_confirmed, fr.witnesses_unconfirmed,
                fr.witnesses_inconclusive) == (
            verdicts["confirmed"], verdicts["unconfirmed"],
            verdicts["inconclusive"]), fr.function
        statuses = Counter(d.repair.status.value for d in fr.diagnostics)
        assert (fr.repairs_attempted, fr.repairs_succeeded,
                fr.repairs_rejected, fr.repairs_no_template) == (
            len(fr.diagnostics), statuses["repaired"], statuses["rejected"],
            statuses["no template"]), fr.function
        rejections = Counter()
        for diagnostic in fr.diagnostics:
            rejections.update(diagnostic.repair.gate_rejections)
        assert (fr.repair_gate_equivalence_rejects,
                fr.repair_gate_recheck_rejects,
                fr.repair_gate_replay_rejects) == (
            rejections["equivalence"], rejections["recheck"],
            rejections["replay"]), fr.function
    totals = result.stats
    assert totals.witnesses_confirmed > 0 and totals.repairs_succeeded > 0
