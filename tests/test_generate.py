"""Seeded instance generator: determinism and shape families."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.generate import Shape, _draws, generate_lp
from afsimplex.lpformat import format_lp
from afsimplex.model import Constraint, GeneralProblem, Relation, Sense


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


# Range widths where randint's rejection loop changes its behaviour: one
# value (k = 1, and a draw of 1 is redrawn), one below a power of two
# (one value of k bits redrawn), a power of two and one past it (about
# half the draws redrawn), and past 32 bits, where getrandbits joins
# several 32-bit words.
WIDTHS = st.one_of(
    st.just(1),
    st.integers(1, 70).map(lambda k: 2**k - 1),
    st.integers(0, 70).map(lambda k: 2**k),
    st.integers(0, 70).map(lambda k: 2**k + 1),
    st.integers(2**32 + 1, 2**80),
    st.integers(1, 1000),
)


@given(
    seed=st.integers(0, 2**64),
    lo=st.integers(-(10**18), 10**18),
    width=WIDTHS,
    count=st.integers(0, 40),
)
@example(seed=0, lo=-(10**18), width=2 * 10**18 + 1, count=40)
@example(seed=1, lo=10**18, width=1, count=40)
@example(seed=2, lo=-(10**18), width=1, count=3)
@example(seed=3, lo=-9, width=19, count=40)
@settings(max_examples=300, deadline=None)
def test_draws_are_randints(seed, lo, width, count):
    hi = lo + width - 1
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _draws(ours, count, lo, hi) == [theirs.randint(lo, hi) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


# generate_lp as it stood before it drew through `_draws` and shared one
# Fraction per value, kept verbatim as the reference for the ranges the
# golden digests do not reach (they pin only the default (-9, 9)).

def _reference_coeff_row(rng: random.Random, p: int, lo: int, hi: int) -> list[int]:
    while True:
        row = [rng.randint(lo, hi) for _ in range(p)]
        if any(row):
            return row


def reference_generate_lp(
    seed: int,
    rows: int,
    cols: int,
    coeff_range: tuple[int, int] = (-9, 9),
    shape: Shape = Shape.FEASIBLE_BIASED,
) -> GeneralProblem:
    if rows < 1 or cols < 1:
        raise ValueError("need at least one row and one column")
    lo, hi = coeff_range
    if lo > hi:
        raise ValueError("empty coefficient range")
    if lo == hi == 0:
        raise ValueError("coefficient range (0, 0) allows no nonzero row")
    rng = random.Random(f"{seed}:{rows}:{cols}:{lo}:{hi}:{shape.value}")

    variables = tuple(f"x{j}" for j in range(1, cols + 1))
    anchor = [rng.randint(0, 3) for _ in range(cols)]
    sense = rng.choice([Sense.MAX, Sense.MIN])
    objective = {v: rng.randint(lo, hi) for v in variables}

    def anchored(tight: bool) -> tuple[dict, Relation, int]:
        row = _reference_coeff_row(rng, cols, lo, hi)
        value = sum(a * x for a, x in zip(row, anchor))
        relation = rng.choice([Relation.LE, Relation.GE])
        slack = 0 if tight else rng.randint(0, 6)
        rhs = value + slack if relation is Relation.LE else value - slack
        return dict(zip(variables, row)), relation, rhs

    recipes: list[tuple[dict, Relation, int]] = []
    if shape is Shape.FEASIBLE_BIASED:
        for _ in range(rows):
            recipes.append(anchored(tight=False))
    elif shape is Shape.DEGENERATE_BIASED:
        planted = min(rows, 2 + rng.randint(0, 2))
        for _ in range(planted):
            recipes.append(anchored(tight=True))
        for _ in range(rows - planted):
            recipes.append(anchored(tight=False))
    else:
        if rows == 1:
            # One row must do the job alone: nonpositive coefficients
            # cannot reach a positive requirement from x >= 0.
            row = [-abs(x) for x in _reference_coeff_row(rng, cols, lo, hi)]
            recipes.append((dict(zip(variables, row)), Relation.GE, rng.randint(1, 6)))
        else:
            row = _reference_coeff_row(rng, cols, lo, hi)
            coeffs = dict(zip(variables, row))
            value = sum(a * x for a, x in zip(row, anchor))
            gap = rng.randint(1, 3)
            recipes.append((coeffs, Relation.LE, value - gap))
            recipes.append((dict(coeffs), Relation.GE, value + gap))
            for _ in range(rows - 2):
                recipes.append(anchored(tight=False))

    constraints = tuple(
        Constraint(f"c{i}", coeffs, relation, rhs)
        for i, (coeffs, relation, rhs) in enumerate(recipes, start=1)
    )
    return GeneralProblem(
        sense=sense,
        objective=objective,
        constraints=constraints,
        variables=variables,
    )


@pytest.mark.parametrize(
    "coeff_range", [(0, 1), (0, 3), (-1, 1), (2, 2), (-9, 9), (-(10**12), 10**12)], ids=str
)
def test_generated_problems_match_the_reference_generator(coeff_range):
    sizes = (1, 2, 5, 13)
    for seed, rows, cols, shape in product(range(50), sizes, sizes, Shape):
        gp = generate_lp(seed, rows, cols, coeff_range, shape)
        expected = reference_generate_lp(seed, rows, cols, coeff_range, shape)
        assert repr(gp) == repr(expected)
        assert format_lp(gp) == format_lp(expected)
        values = [*gp.objective.values()]
        for con in gp.constraints:
            values += [*con.coeffs.values(), con.rhs]
        assert {type(x) for x in values} == {F}
