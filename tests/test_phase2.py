"""Phase 2 stepping, unboundedness, rays, and the anti-cycling safeguards."""

from fractions import Fraction as F

import pytest

import afsimplex as af
from afsimplex.dictionary import Dictionary, initial_dictionary, slack, structural
from afsimplex.numeric import FloatMode
from afsimplex.phase2 import (
    NotPrimalFeasible,
    improving_ray,
    phase2_step,
)
from afsimplex.trace import SolveConfig, Status, TieBreak

from conftest import CYCLER_TEXT, problem_from


def feasible_walk_dictionary(walk_sp):
    d0 = initial_dictionary(walk_sp)
    cfg = SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT)
    d1, status, _ = af.run_phase1(d0, cfg)
    assert status is Status.FEASIBLE
    return d1


def test_rejects_infeasible_start(walk_sp):
    d0 = initial_dictionary(walk_sp)
    with pytest.raises(NotPrimalFeasible):
        phase2_step(d0, TieBreak.SMALLEST_LABEL)
    with pytest.raises(NotPrimalFeasible):
        af.run_phase2(d0, SolveConfig())


def test_walk_phase2_pivot_then_unbounded(walk_sp):
    d1 = feasible_walk_dictionary(walk_sp)
    decision = phase2_step(d1, TieBreak.SMALLEST_LABEL)
    assert decision.status is None
    assert d1.column_label(decision.entering_column).name == "w4"
    assert d1.row_label(decision.leaving_row).name == "x1"
    assert decision.ratio == F(1)

    d2, status, trace = af.run_phase2(d1, SolveConfig())
    assert status is Status.UNBOUNDED
    assert trace.pivots == 1
    assert trace.corners[-1] == (F(0), F(9))
    assert d2.entries[0][0] == F(45)


def test_walk_ray_is_verified_improving(walk_sp):
    d1 = feasible_walk_dictionary(walk_sp)
    d2, status, _ = af.run_phase2(d1, SolveConfig())
    assert status is Status.UNBOUNDED
    decision = phase2_step(d2, TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.UNBOUNDED
    direction = improving_ray(d2, decision.entering_column)
    assert len(direction) == walk_sp.p
    # feasible direction: A d <= 0 for every row, improving: c d > 0
    for row in walk_sp.A:
        assert sum(a * x for a, x in zip(row, direction)) <= 0
    assert sum(c * x for c, x in zip(walk_sp.c, direction)) > 0


def test_optimal_when_objective_row_nonnegative():
    d = Dictionary(
        basis=(slack(1),),
        nonbasis=(structural(1),),
        entries=((F(7), F(2)), (F(1), F(1))),
    )
    decision = phase2_step(d, TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.OPTIMAL
    d2, status, trace = af.run_phase2(d, SolveConfig())
    assert status is Status.OPTIMAL
    assert trace.pivots == 0
    assert d2 == d


def test_unbounded_column_detected_directly():
    # obj entry -5 over a column whose entries are all <= 0
    d = Dictionary(
        basis=(slack(1), slack(2), slack(3)),
        nonbasis=(structural(1),),
        entries=((F(0), F(-5)), (F(1), F(-1)), (F(2), F(0)), (F(3), F(-2))),
    )
    decision = phase2_step(d, TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.UNBOUNDED
    assert decision.entering_column == 1


def test_bounded_box_reaches_optimum():
    sp = problem_from("max: x1 + x2;\nc1: x1 <= 2;\nc2: x2 <= 3;\n")
    d, status, trace = af.run_phase2(initial_dictionary(sp), SolveConfig())
    assert status is Status.OPTIMAL
    assert d.objective_value == F(5)
    assert d.corner() == (F(2), F(3))


def test_cycling_detected_under_smallest_label(cycler_sp):
    d0 = initial_dictionary(cycler_sp)
    _, status, trace = af.run_phase2(d0, SolveConfig())
    assert status is Status.CYCLE_DETECTED
    assert trace.pivots == 6  # the textbook six-pivot loop


def test_abs_pivot_rules_escape_the_cycle(cycler_sp):
    for tie in (TieBreak.SMALLEST_ABS_PIVOT, TieBreak.LARGEST_ABS_PIVOT):
        d0 = initial_dictionary(cycler_sp)
        d, status, _ = af.run_phase2(d0, SolveConfig(tie_break=tie))
        assert status is Status.OPTIMAL
        assert d.objective_value == F(1, 20)


def test_iteration_budget_without_cycle_detection():
    # float mode keeps no set of seen bases, so the six-pivot loop repeats
    # until the budget runs out
    d0 = initial_dictionary(af.standardize(af.parse_lp(CYCLER_TEXT, FloatMode())))
    _, status, trace = af.run_phase2(d0, SolveConfig(max_iterations=40))
    assert status is Status.ITERATION_LIMIT
    assert trace.pivots == 40
    entering = [rec.entering for rec in trace.records]
    assert entering[6:12] == entering[:6]
