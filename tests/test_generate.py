"""Seeded instance generator: determinism and shape families."""

from fractions import Fraction as F
from itertools import product

import pytest

import afsimplex as af
from afsimplex.generate import Shape, generate_lp


def tight_count(sp, point):
    hits = 0
    for row, rhs in zip(sp.A, sp.b):
        lhs = sum((a * x for a, x in zip(row, point)), F(0))
        if lhs == rhs:
            hits += 1
    return hits


def feasible_at(sp, point):
    return all(
        sum((a * x for a, x in zip(row, point)), F(0)) <= rhs
        for row, rhs in zip(sp.A, sp.b)
    )


def test_same_seed_same_problem():
    a = generate_lp(seed=11, rows=4, cols=3, shape=Shape.FEASIBLE_BIASED)
    b = generate_lp(seed=11, rows=4, cols=3, shape=Shape.FEASIBLE_BIASED)
    assert a == b


def test_different_seeds_differ():
    a = generate_lp(seed=1, rows=4, cols=3, shape=Shape.FEASIBLE_BIASED)
    b = generate_lp(seed=2, rows=4, cols=3, shape=Shape.FEASIBLE_BIASED)
    assert a != b


def test_shape_feeds_the_stream():
    a = generate_lp(seed=5, rows=3, cols=2, shape=Shape.FEASIBLE_BIASED)
    b = generate_lp(seed=5, rows=3, cols=2, shape=Shape.INFEASIBLE_BIASED)
    assert a != b


def test_row_and_column_counts():
    gp = generate_lp(seed=3, rows=5, cols=4, shape=Shape.FEASIBLE_BIASED)
    assert len(gp.constraints) == 5
    assert gp.variables == ("x1", "x2", "x3", "x4")
    assert [c.name for c in gp.constraints] == ["c1", "c2", "c3", "c4", "c5"]


def test_matrix_coefficients_respect_range():
    # constraint and objective coefficients stay inside the band; the
    # right-hand sides may not, they absorb the anchor point
    lo, hi = -4, 4
    for seed in range(30):
        gp = generate_lp(
            seed=seed, rows=4, cols=3, coeff_range=(lo, hi),
            shape=Shape.FEASIBLE_BIASED,
        )
        for con in gp.constraints:
            assert all(lo <= v <= hi for v in con.coeffs.values())
        assert all(lo <= v <= hi for v in gp.objective.values())


def test_feasible_biased_instances_are_feasible():
    for seed in range(40):
        sp = af.standardize(
            generate_lp(seed=seed, rows=3, cols=2, shape=Shape.FEASIBLE_BIASED)
        )
        assert af.enumerate_vertices(sp).feasible


def test_infeasible_biased_instances_are_empty():
    for seed in range(40):
        sp = af.standardize(
            generate_lp(seed=seed, rows=3, cols=2, shape=Shape.INFEASIBLE_BIASED)
        )
        assert not af.enumerate_vertices(sp).feasible


def test_degenerate_biased_instances_pinch_a_point():
    # some lattice point in [0,3]^p is feasible with two or more rows tight
    for seed in range(25):
        sp = af.standardize(
            generate_lp(seed=seed, rows=4, cols=2, shape=Shape.DEGENERATE_BIASED)
        )
        assert af.enumerate_vertices(sp).feasible
        points = [
            tuple(F(v) for v in pt) for pt in product(range(4), repeat=sp.p)
        ]
        assert any(
            feasible_at(sp, pt) and tight_count(sp, pt) >= 2 for pt in points
        )


def test_shape_values_are_cli_friendly():
    assert {s.value for s in Shape} == {
        "feasible-biased",
        "infeasible-biased",
        "degenerate-biased",
    }


@pytest.mark.parametrize("shape", list(Shape))
def test_all_zero_coefficient_range_is_refused(shape):
    # every drawn row would be zero, and a zero row is redrawn
    with pytest.raises(ValueError, match="nonzero"):
        generate_lp(seed=1, rows=2, cols=2, coeff_range=(0, 0), shape=shape)
    for one_sided in ((0, 1), (-1, 0)):
        gp = generate_lp(seed=1, rows=2, cols=2, coeff_range=one_sided, shape=shape)
        assert all(any(con.coeffs.values()) for con in gp.constraints)
