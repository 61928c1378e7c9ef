"""Dual phase 1 as the exact mirror of the primal rule on the transpose."""

import random
from fractions import Fraction as F

import afsimplex as af
from afsimplex.dictionary import Dictionary, slack, structural
from afsimplex.dual import dual_phase1_step
from afsimplex.phase1 import infeasibility_sum, infeasible_rows, phase1_objective_vector
from afsimplex.trace import SolveConfig, Status


def one_row_example():
    return Dictionary(
        basis=(slack(1),),
        nonbasis=(structural(1), structural(2)),
        entries=((F(0), F(-1), F(2)), (F(5), F(1), F(1))),
    )


def random_dictionary(rng, pivots=0):
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    entries = tuple(
        tuple(F(rng.randint(-6, 6)) for _ in range(n + 1))
        for _ in range(m + 1)
    )
    d = Dictionary(
        basis=tuple(slack(i + 1) for i in range(m)),
        nonbasis=tuple(structural(j + 1) for j in range(n)),
        entries=entries,
    )
    for _ in range(pivots):
        spots = [
            (i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if d.entries[i][j] != 0
        ]
        if not spots:
            break
        d = d.pivot(*rng.choice(spots))
    return d


def test_one_row_example_reaches_dual_feasibility():
    d, status, trace = af.run_dual_phase1(one_row_example(), SolveConfig())
    assert status is Status.DUAL_FEASIBLE
    assert trace.pivots == 1
    rec = trace.records[0]
    assert (rec.leaving.name, rec.entering.name) == ("w1", "x1")
    assert d.entries[0] == (F(5), F(1), F(3))


def test_step_decision_mirrors_the_transpose():
    d = one_row_example()
    decision = dual_phase1_step(d)
    assert decision.status is None
    nt = d.negative_transpose()
    # row sum over the negative column: the mirror's W negated
    assert tuple(-w for w in phase1_objective_vector(nt, infeasible_rows(nt))) == (F(1),)
    assert decision.entering_column == 1
    assert decision.leaving_row == 1
    mirror = af.phase1_step(d.negative_transpose())
    assert (decision.leaving_row, decision.entering_column) == (
        mirror.entering_column,
        mirror.leaving_row,
    )
    assert decision.ratio == mirror.ratio


def test_already_dual_feasible():
    d = Dictionary(
        basis=(slack(1),),
        nonbasis=(structural(1),),
        entries=((F(0), F(2)), (F(-3), F(1))),
    )
    decision = dual_phase1_step(d)
    assert decision.status is Status.DUAL_FEASIBLE
    _, status, trace = af.run_dual_phase1(d, SolveConfig())
    assert status is Status.DUAL_FEASIBLE
    assert trace.pivots == 0


def test_dual_infeasibility_sum():
    d = one_row_example()
    assert dual_phase1_step(d).infeasibility == F(1)


def test_mirror_full_runs_agree():
    rng = random.Random(20240817)
    checked = 0
    for trial in range(120):
        d = random_dictionary(rng, pivots=rng.randint(0, 2))
        dual_final, dual_status, dual_trace = af.run_dual_phase1(d, SolveConfig())
        primal_final, primal_status, primal_trace = af.run_phase1(
            d.negative_transpose(), SolveConfig()
        )
        pairing = {
            Status.DUAL_FEASIBLE: Status.FEASIBLE,
            Status.DUAL_INFEASIBLE: Status.INFEASIBLE,
            Status.CYCLE_DETECTED: Status.CYCLE_DETECTED,
            Status.ITERATION_LIMIT: Status.ITERATION_LIMIT,
        }
        assert pairing[dual_status] is primal_status
        assert len(dual_trace.records) == len(primal_trace.records)
        for dual_rec, primal_rec in zip(dual_trace.records, primal_trace.records):
            assert dual_rec.leaving == primal_rec.entering
            assert dual_rec.entering == primal_rec.leaving
            assert dual_rec.ratio == primal_rec.ratio
        assert dual_final.negative_transpose() == primal_final
        checked += 1
    assert checked == 120


def test_dual_feasible_columns_stay_dual_feasible():
    rng = random.Random(77)
    for trial in range(60):
        d = random_dictionary(rng)
        while True:
            decision = dual_phase1_step(d)
            if decision.status is not None:
                break
            nonneg_before = {
                d.column_label(j)
                for j in range(1, d.n + 1)
                if d.entries[0][j] >= 0
            }
            before_sum = infeasibility_sum(d.negative_transpose())
            d = d.pivot(decision.leaving_row, decision.entering_column)
            for j in range(1, d.n + 1):
                if d.column_label(j) in nonneg_before:
                    assert d.entries[0][j] >= 0
            assert infeasibility_sum(d.negative_transpose()) <= before_sum
