"""Two-phase orchestration, certificates, and method comparison."""

from fractions import Fraction as F

import pytest

import afsimplex as af
from afsimplex.harness import Method, compare, solve
from afsimplex.phase1 import NoEligibleRow
from afsimplex.trace import SolveConfig, Status, TieBreak

from conftest import problem_from


def test_walk_solve_unbounded_both_methods(walk_sp):
    for method in Method:
        out = solve(walk_sp, method, SolveConfig())
        assert out.status is Status.UNBOUNDED
        assert out.solution == {}
        assert out.objective is None
        ray = out.certificates.ray
        assert ray is not None
        direction = [ray.get(v, F(0)) for v in walk_sp.variables]
        for row in walk_sp.A:
            assert sum(a * x for a, x in zip(row, direction)) <= 0
        assert sum(c * x for c, x in zip(walk_sp.c, direction)) > 0


def test_optimal_solution_and_objective():
    sp = problem_from("max: 2 x1 + x2;\nc1: x1 <= 3;\nc2: x2 <= 1;\n")
    out = solve(sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert out.status is Status.OPTIMAL
    assert out.solution == {"x1": F(3), "x2": F(1)}
    assert out.objective == F(7)
    assert out.phase2 is not None


def test_min_problem_reports_original_objective():
    sp = problem_from("min: x1;\nc1: x1 >= 4;\n")
    for method in Method:
        out = solve(sp, method, SolveConfig())
        assert out.status is Status.OPTIMAL
        assert out.solution == {"x1": F(4)}
        assert out.objective == F(4)


def test_infeasible_certificates_name_the_method_evidence(strip_sp):
    af_out = solve(strip_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    trad_out = solve(strip_sp, Method.TRADITIONAL, SolveConfig())
    assert af_out.status is trad_out.status is Status.INFEASIBLE
    # the AF run points at stuck slack rows, the traditional run at the
    # artificials left standing
    assert af_out.certificates.infeasible_rows == ("w2",)
    assert trad_out.certificates.infeasible_rows == ("a2",)
    assert af_out.phase2 is None


def test_solve_agrees_with_oracle_on_value():
    sp = problem_from("max: x1 + 2 x2;\nc1: x1 + x2 <= 4;\nc2: x1 >= 1;\n")
    out = solve(sp, Method.ARTIFICIAL_FREE, SolveConfig())
    oracle = af.enumerate_vertices(sp)
    assert out.status is Status.OPTIMAL
    assert out.objective == oracle.optimal_value


def test_solve_refuses_a_monitor_it_would_ignore(walk_sp):
    monitor = af.InvariantMonitor()
    with pytest.raises(ValueError, match="monitor"):
        solve(walk_sp, Method.TRADITIONAL, SolveConfig(), monitor=monitor)
    assert monitor.checks == 0
    solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig(), monitor=monitor)
    assert monitor.checks == 3


def test_compare_walk(walk_sp):
    report = compare(walk_sp, SolveConfig())
    assert report.verdict is Status.FEASIBLE
    assert report.af == solve(walk_sp, Method.ARTIFICIAL_FREE).phase1
    assert report.traditional == solve(walk_sp, Method.TRADITIONAL).phase1
    assert report.af.pivots == 3
    assert report.af.degenerate_pivots == 0
    assert report.traditional.pivots == 5
    assert report.traditional.degenerate_pivots == 2
    assert report.corners_equal
    assert report.af_pivots_le_traditional


def test_compare_infeasible(strip_sp):
    report = compare(strip_sp, SolveConfig())
    assert report.verdict is Status.INFEASIBLE


@pytest.mark.parametrize(
    "budget, af_verdict",
    [(1, Status.ITERATION_LIMIT), (3, Status.FEASIBLE), (4, Status.FEASIBLE)],
)
def test_compare_reports_a_safeguard_stop_on_either_side(walk_sp, budget, af_verdict):
    report = compare(walk_sp, SolveConfig(max_iterations=budget))
    assert report.verdict is Status.ITERATION_LIMIT
    assert report.af.status is af_verdict
    assert report.traditional.status is Status.ITERATION_LIMIT


def test_safeguard_status_passes_through(cycler_sp):
    out = solve(cycler_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert out.status is Status.CYCLE_DETECTED
    assert out.solution == {}

    out2 = solve(
        cycler_sp,
        Method.ARTIFICIAL_FREE,
        SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT),
    )
    assert out2.status is Status.OPTIMAL
    assert out2.objective == F(1, 20)


def test_phase1_iteration_budget_surfaces(walk_sp):
    out = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig(max_iterations=1))
    assert out.status is Status.ITERATION_LIMIT
    assert out.phase2 is None


@pytest.mark.parametrize("method", list(Method))
def test_an_empty_ratio_test_raises_no_eligible_row(method):
    # Each 6e-10 sits inside the float band, but the summed price of x1
    # (W in af, the auxiliary row in trad) is below -eps, so the priced
    # column has no eligible row.  Exact mode finds the problem unbounded.
    text = "max: x1;\n" + "".join(f"c{i}: 6/10000000000 x1 >= 1;\n" for i in (1, 2, 3))
    sp = af.standardize(af.parse_lp(text, af.FloatMode()))
    with pytest.raises(NoEligibleRow, match="column 1"):
        solve(sp, method)
    assert solve(problem_from(text), method).status is Status.UNBOUNDED
