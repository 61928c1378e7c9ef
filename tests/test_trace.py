"""The one pivot loop, seen through each of the four phase drivers."""

import pytest

import afsimplex as af
from afsimplex.trace import SolveConfig, Status

from conftest import WALK_TEXT, problem_from

# Feasible at the origin; phase 2 and the dual phase 1 each take three pivots.
BOX3_TEXT = """\
max: 2 x1 + 3 x2 + x3;
c1: x1 + x2 + x3 <= 4;
c2: x1 + 2 x2 <= 5;
c3: x2 + 3 x3 <= 6;
"""

DRIVERS = [
    pytest.param(af.run_phase1, af.initial_dictionary, WALK_TEXT, id="phase1"),
    pytest.param(af.run_phase2, af.initial_dictionary, BOX3_TEXT, id="phase2"),
    pytest.param(af.run_dual_phase1, af.initial_dictionary, BOX3_TEXT, id="dual_phase1"),
    pytest.param(af.run_traditional_phase1, af.build_auxiliary, WALK_TEXT, id="traditional"),
]


@pytest.mark.parametrize("run, start, text", DRIVERS)
def test_budget_of_one_stops_after_one_pivot(run, start, text):
    d, status, trace = run(start(problem_from(text)), SolveConfig(max_iterations=1))
    assert status is Status.ITERATION_LIMIT
    assert trace.status is Status.ITERATION_LIMIT
    assert trace.pivots == 1
    assert isinstance(d, af.Dictionary)


@pytest.mark.parametrize("run, start, text", DRIVERS)
def test_violation_total_is_carried_from_pivot_to_pivot(run, start, text):
    _, status, trace = run(start(problem_from(text)))
    assert status is not Status.ITERATION_LIMIT
    assert trace.pivots >= 2
    assert trace.corners[-1] == trace.records[-1].corner


@pytest.mark.parametrize("run, start, text", DRIVERS)
def test_degenerate_means_the_ratio_is_zero(run, start, text):
    _, _, trace = run(start(problem_from(text)))
    assert all(rec.degenerate == (rec.ratio == 0) for rec in trace.records)
