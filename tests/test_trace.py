"""The one pivot loop, seen through each of the four phase drivers."""

import pytest

import afsimplex as af
from afsimplex import phase1
from afsimplex.dictionary import Dictionary
from afsimplex.traditional import artificial_rows
from afsimplex.trace import SolveConfig, Status

from conftest import PHASE1_CYCLER_TEXT, WALK_TEXT, ladder_text, problem_from
from test_acceptance import _sweep_instances

# Feasible at the origin; phase 2 and the dual phase 1 each take three pivots.
BOX3_TEXT = """\
max: 2 x1 + 3 x2 + x3;
c1: x1 + x2 + x3 <= 4;
c2: x1 + 2 x2 <= 5;
c3: x2 + 3 x3 <= 6;
"""

# Each driver of MEASURED_BY (below) with a problem it takes two or more
# pivots on.
DRIVERS = [
    pytest.param("phase1", WALK_TEXT, id="phase1"),
    pytest.param("phase2", BOX3_TEXT, id="phase2"),
    pytest.param("dual_phase1", BOX3_TEXT, id="dual_phase1"),
    pytest.param("traditional", WALK_TEXT, id="traditional"),
]


@pytest.mark.parametrize("driver, text", DRIVERS)
def test_budget_of_one_stops_after_one_pivot(driver, text):
    run, start = MEASURED_BY[driver][:2]
    d, status, trace = run(start(problem_from(text)), SolveConfig(max_iterations=1))
    assert status is Status.ITERATION_LIMIT
    assert trace.status is Status.ITERATION_LIMIT
    assert trace.pivots == 1
    assert isinstance(d, af.Dictionary)


@pytest.mark.parametrize("driver, text", DRIVERS)
def test_violation_total_is_carried_from_pivot_to_pivot(driver, text):
    status, trace = check_totals(driver, problem_from(text))
    assert status is not Status.ITERATION_LIMIT
    assert trace.pivots >= 2


@pytest.mark.parametrize("driver, text", DRIVERS)
def test_degenerate_means_the_ratio_is_zero(driver, text):
    run, start = MEASURED_BY[driver][:2]
    _, _, trace = run(start(problem_from(text)))
    assert all(rec.degenerate == (rec.ratio == 0) for rec in trace.records)


def phi(d):
    """The violation total summed on its own: minus the rhs of the negative
    rows, added one by one from int 0 in the order `infeasible_rows` gives."""
    rows = af.infeasible_rows(d)
    if not rows:
        return d.mode.zero
    rhs, total = d.column(0), 0
    for i in rows:
        total += rhs[i]
    return d.value(-total)


def artificial_total(d):
    """The total value of the basic artificials (exact mode)."""
    return sum((d.rhs(i) for i in artificial_rows(d)), d.mode.zero)


def _plain_pivot(d, rec):
    return d.pivot


def _auxiliary_pivot(d, rec):
    aux = af.AuxiliaryDictionary(d)
    return aux.conjugate_pivot if rec.via_conjugate else aux.pivot


# driver name -> (run, start, independent violation total, pivot).  Every
# driver's state is a dictionary.  Phase 2 starts primal feasible, so its
# total is zero throughout.
MEASURED_BY = {
    "phase1": (af.run_phase1, af.initial_dictionary, phi, _plain_pivot),
    "phase2": (af.run_phase2, af.initial_dictionary, lambda d: d.mode.zero, _plain_pivot),
    "dual_phase1": (
        af.run_dual_phase1,
        af.initial_dictionary,
        lambda d: phi(d.negative_transpose()),
        _plain_pivot,
    ),
    "traditional": (
        af.run_traditional_phase1,
        af.build_auxiliary,
        artificial_total,
        _auxiliary_pivot,
    ),
}

# The drivers that may start primal infeasible; phase 2 refuses such a start.
PHASE1_DRIVERS = ["phase1", "dual_phase1", "traditional"]

FLOAT = af.FloatMode(1e-9)  # the CLI's default --eps


def bits(x):
    """A value as its exact bits: a float by its hex form."""
    return x.hex() if isinstance(x, float) else x


def recorded_totals(trace):
    """The trace's violation totals: the initial one, then one per record."""
    return [trace.initial_infeasibility] + [rec.infeasibility_after for rec in trace.records]


def check_totals(driver, sp, config=None):
    """Run `driver` on `sp` and compare every violation total of its trace
    with the independent measure of the state it follows, replayed by
    label; returns the status and trace."""
    run, start, measure, pivot = MEASURED_BY[driver]
    d = start(sp)
    _, status, trace = run(d, config)
    expected = [measure(d)]
    for rec in trace.records:
        r, m = d.basis.index(rec.leaving) + 1, d.nonbasis.index(rec.entering) + 1
        d = pivot(d, rec)(r, m)
        expected.append(measure(d))
    assert list(map(bits, recorded_totals(trace))) == list(map(bits, expected))
    return status, trace


def ladder(shape, mode=af.EXACT):
    return af.standardize(af.parse_lp(ladder_text(30, shape), mode))


# The traditional total is compared in exact mode only: in float mode the
# auxiliary row that rides through the pivots rounds otherwise than a fresh
# sum of the artificials.
@pytest.mark.parametrize("shape", list(af.Shape), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "driver, mode",
    [
        ("phase1", af.EXACT),
        ("phase1", FLOAT),
        ("dual_phase1", af.EXACT),
        ("dual_phase1", FLOAT),
        ("traditional", af.EXACT),
    ],
    ids=["phase1-exact", "phase1-float", "dual-exact", "dual-float", "traditional-exact"],
)
def test_recorded_totals_measure_the_dictionaries_they_follow(driver, mode, shape):
    status, trace = check_totals(driver, ladder(shape, mode))
    assert status not in (Status.CYCLE_DETECTED, Status.ITERATION_LIMIT)
    assert trace.pivots > 0


def test_recorded_totals_measure_the_sweep():
    for seed, rows, cols, shape in _sweep_instances():
        sp = af.standardize(af.generate_lp(seed=seed, rows=rows, cols=cols, shape=shape))
        for driver in PHASE1_DRIVERS:
            check_totals(driver, sp)


@pytest.mark.parametrize("driver", PHASE1_DRIVERS)
@pytest.mark.parametrize("k", [1, 5])
def test_a_cut_run_records_the_total_after_its_last_pivot(driver, k):
    status, trace = check_totals(
        driver, ladder(af.Shape.FEASIBLE_BIASED), SolveConfig(max_iterations=k)
    )
    assert status is Status.ITERATION_LIMIT
    assert trace.pivots == k


@pytest.mark.parametrize("driver", ["phase1", "traditional"])
def test_the_phase1_cycler_still_stops_after_six_pivots(driver):
    status, trace = check_totals(driver, problem_from(PHASE1_CYCLER_TEXT))
    assert status is Status.CYCLE_DETECTED
    assert trace.pivots == 6


@pytest.mark.parametrize("mode", [af.EXACT, FLOAT], ids=["exact", "float"])
def test_phase2_records_no_violation(mode):
    runs = [af.solve(ladder(shape, mode)).phase2 for shape in af.Shape]
    box = af.standardize(af.parse_lp(BOX3_TEXT, mode))
    runs.append(af.run_phase2(af.initial_dictionary(box))[2])
    traces = [trace for trace in runs if trace is not None and trace.pivots > 0]
    assert len(traces) >= 2
    for trace in traces:
        assert list(map(bits, recorded_totals(trace))) == [bits(mode.zero)] * (trace.pivots + 1)


def _counting(monkeypatch, owner, name):
    """Count the calls to `owner.name` from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "shape, pivots",
    [
        (af.Shape.FEASIBLE_BIASED, 27),
        (af.Shape.INFEASIBLE_BIASED, 24),
        (af.Shape.DEGENERATE_BIASED, 18),
    ],
    ids=lambda x: getattr(x, "value", x),
)
def test_af_collects_l_once_per_dictionary(shape, pivots, monkeypatch):
    d = af.initial_dictionary(ladder(shape))
    calls = _counting(monkeypatch, phase1, "infeasible_rows")
    _, _, trace = af.run_phase1(d)
    assert (trace.pivots, len(calls)) == (pivots, pivots + 1)


@pytest.mark.parametrize("shape", list(af.Shape), ids=lambda s: s.value)
def test_dual_builds_one_negative_transpose_per_step(shape, monkeypatch):
    d = af.initial_dictionary(ladder(shape))
    calls = _counting(monkeypatch, Dictionary, "negative_transpose")
    _, status, trace = af.run_dual_phase1(d)
    assert status in (Status.DUAL_FEASIBLE, Status.DUAL_INFEASIBLE)
    assert len(calls) == trace.pivots + 1
