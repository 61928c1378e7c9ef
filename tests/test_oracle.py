"""Brute-force enumeration oracle: vertices, bounds, and guards."""

import inspect
import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex import oracle
from afsimplex.generate import Shape, generate_lp
from afsimplex.model import Constraint, GeneralProblem, Relation, Sense, StandardProblem
from afsimplex.numeric import ExactMode, FloatMode
from afsimplex.oracle import OracleResult, TooLarge, enumerate_vertices

from conftest import fractions_built_during, problem_from, x1_bounds_text


def test_walk_vertices(walk_sp):
    result = enumerate_vertices(walk_sp)
    assert result.feasible
    assert result.unbounded
    assert result.optimal_value is None
    assert result.vertices == (
        (F(0), F(9)),
        (F(2), F(6)),
        (F(4), F(6)),
    )


def test_strip_is_empty(strip_sp):
    result = enumerate_vertices(strip_sp)
    assert not result.feasible
    assert not result.unbounded
    assert result.vertices == ()


def test_bounded_box():
    sp = problem_from("max: x1 + x2;\nc1: x1 <= 2;\nc2: x2 <= 3;\n")
    result = enumerate_vertices(sp)
    assert result.feasible and not result.unbounded
    assert result.optimal_value == F(5)
    assert result.optimal_vertex == (F(2), F(3))
    assert result.vertices == (
        (F(0), F(0)),
        (F(0), F(3)),
        (F(2), F(0)),
        (F(2), F(3)),
    )


def test_min_sense_reports_original_value():
    # min -x1 over x1 <= 5 has minimum -5; the oracle reports that, not
    # the internal maximization value
    sp = problem_from("min: -x1;\nc1: x1 <= 5;\n")
    result = enumerate_vertices(sp)
    assert result.optimal_value == F(-5)
    assert result.optimal_vertex == (F(5),)


def test_fractional_vertices_are_exact():
    sp = problem_from("max: x1;\nc1: 3 x1 <= 1;\n")
    result = enumerate_vertices(sp)
    assert result.optimal_value == F(1, 3)
    assert result.vertices == ((F(0),), (F(1, 3),))


def test_cycler_matches_known_optimum(cycler_sp):
    result = enumerate_vertices(cycler_sp)
    assert result.feasible and not result.unbounded
    assert result.optimal_value == F(1, 20)


def test_guard_refuses_large_instances(walk_sp):
    # C(7, 5) = 21 subsets; a guard of 20 must refuse
    with pytest.raises(TooLarge):
        enumerate_vertices(walk_sp, guard=20)


def test_guard_counts_the_walks_row_updates(walk_sp):
    # C(7, 5) = 21 bases pass a guard of 21, but 5 steps of 5 rows do not.
    with pytest.raises(TooLarge, match="walk"):
        enumerate_vertices(walk_sp, guard=21)
    # 120 rows: 475 steps, 57,000 row updates, under the default.
    assert enumerate_vertices(problem_from(x1_bounds_text(120))).optimal_value == F(1)
    # 240 rows: 241 bases, but 955 steps, 229,200 row updates.
    with pytest.raises(TooLarge, match="walk"):
        enumerate_vertices(problem_from(x1_bounds_text(240)), guard=200_000)


def test_walk_prunes_prefixes_that_no_feasible_basis_extends(monkeypatch):
    # Without the prune, the 120-row walk takes 7,261 steps.
    steps = []
    pivot = oracle._pivot
    monkeypatch.setattr(oracle, "_pivot", lambda *args: steps.append(1) or pivot(*args))
    assert enumerate_vertices(problem_from(x1_bounds_text(120))).optimal_value == F(1)
    assert len(steps) == 475


def test_float_mode_rejected():
    sp = problem_from("max: x1;\nc1: x1 <= 1;\n")
    float_sp = af.standardize(af.parse_lp("max: x1;\nc1: x1 <= 1;\n", FloatMode()))
    enumerate_vertices(sp)  # exact mode is fine
    with pytest.raises(ValueError, match="exact"):
        enumerate_vertices(float_sp)


@pytest.mark.parametrize(
    "A, b, c",
    [
        (((1, 0.5),), (3,), (1, 1)),
        (((1, 2),), (0.5,), (1, 1)),
        (((1, 2),), (3,), (1, 0.5)),
    ],
    ids=["A", "b", "c"],
)
def test_float_in_an_exact_problem_refused(A, b, c):
    # Read as its binary fraction, A = ((1, 0.5),) would give the vertex
    # (0, 6); the oracle refuses it as the starting dictionaries do.
    sp = StandardProblem(A, b, c, ("x", "y"), ("c1",), False)
    for start in (enumerate_vertices, af.initial_dictionary, af.build_auxiliary):
        with pytest.raises(TypeError, match=r"^float 0\.5 given in exact mode"):
            start(sp)


def test_a_vertex_shared_by_several_bases_is_built_once():
    # (1, 1) is tight on all three rows, so three feasible bases share it:
    # six feasible bases, four vertices.
    sp = problem_from("max: x1 + x2;\nc1: x1 <= 1;\nc2: x2 <= 1;\nc3: x1 + x2 <= 2;\n")
    assert len(enumerate_vertices(sp).vertices) == 4
    # two coordinates and one objective value per distinct vertex
    assert fractions_built_during(enumerate_vertices, sp) == 4 * 3
    # the reference builds them at every feasible basis
    assert fractions_built_during(reference_enumerate_vertices, sp) >= 6 * 3


def test_ties_resolved_to_lexicographically_smallest_vertex():
    # both corners score 1; the reported argmax must be deterministic
    sp = problem_from("max: x1 + x2;\nc1: x1 + x2 <= 1;\n")
    result = enumerate_vertices(sp)
    assert result.optimal_value == F(1)
    assert result.optimal_vertex == (F(0), F(1))


# The oracle as it stood before its elimination became fraction-free and
# feasibility-first, kept verbatim (renamed) as the reference that the
# property test below holds the shipped oracle to.


def _reference_integer_rows(sp: StandardProblem) -> tuple[list[list[int]], list[int]]:
    """Row-scale [A | I] and b to integers (scaling keeps the x-geometry)."""
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(sp.m):
        values = [Fraction(x) for x in sp.A[i]] + [Fraction(sp.b[i])]
        scale = lcm(*(v.denominator for v in values))
        row = [int(v * scale) for v in values[:-1]]
        slack_part = [scale if k == i else 0 for k in range(sp.m)]
        rows.append(row + slack_part)
        rhs.append(int(values[-1] * scale))
    return rows, rhs


def _reference_solve_subset(
    matrix: list[list[int]], width: int
) -> Optional[list[list[Fraction]]]:
    """Gaussian elimination on an integer matrix whose first `width`
    columns must be invertible; returns solutions for every augmented
    column, or None when singular.  Fraction-free (Bareiss) forward pass,
    exact back-substitution."""
    a = [row[:] for row in matrix]
    size = width
    total = len(a[0])
    sign = 1
    prev = 1
    for k in range(size):
        pivot_row = next(
            (i for i in range(k, size) if a[i][k] != 0),
            None,
        )
        if pivot_row is None:
            return None
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, total):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]

    solutions: list[list[Fraction]] = []
    for col in range(size, total):
        x = [Fraction(0)] * size
        for i in range(size - 1, -1, -1):
            acc = Fraction(a[i][col])
            for j in range(i + 1, size):
                acc -= a[i][j] * x[j]
            x[i] = acc / a[i][i]
        solutions.append(x)
    return solutions


def reference_enumerate_vertices(sp: StandardProblem, guard: int = 10**6) -> OracleResult:
    """Enumerate all basic solutions of the slack-augmented system.

    Raises TooLarge when C(m+p, m) exceeds `guard`.  Exact mode only:
    the whole point of the oracle is bit-for-bit comparability.
    """
    if not isinstance(sp.mode, ExactMode):
        raise ValueError("the enumeration oracle runs in exact mode only")
    m, p = sp.m, sp.p
    total_cols = m + p
    if comb(total_cols, m) > guard:
        raise TooLarge(
            f"C({total_cols}, {m}) = {comb(total_cols, m)} bases exceeds guard {guard}"
        )

    rows, rhs = _reference_integer_rows(sp)
    c_ext = [Fraction(x) for x in sp.c] + [Fraction(0)] * m

    feasible = False
    unbounded = False
    vertices: set[tuple[Fraction, ...]] = set()
    best: Optional[Fraction] = None
    best_vertex: Optional[tuple[Fraction, ...]] = None

    for subset in combinations(range(total_cols), m):
        others = [j for j in range(total_cols) if j not in subset]
        # Augmented layout: basis columns | rhs | every nonbasis column.
        matrix = [
            [rows[i][j] for j in subset]
            + [rhs[i]]
            + [rows[i][j] for j in others]
            for i in range(m)
        ]
        solved = _reference_solve_subset(matrix, m)
        if solved is None:
            continue
        x_basis = solved[0]
        if any(v < 0 for v in x_basis):
            continue
        feasible = True

        full = [Fraction(0)] * total_cols
        for pos, j in enumerate(subset):
            full[j] = x_basis[pos]
        vertex = tuple(full[:p])
        vertices.add(vertex)
        value = sum((sp.c[j] * full[j] for j in range(p)), Fraction(0))
        if best is None or value > best or (value == best and vertex < best_vertex):
            best, best_vertex = value, vertex

        for pos, j in enumerate(others, start=1):
            y = solved[pos]  # basis response to raising column j
            if all(v <= 0 for v in y):
                reduced = c_ext[j] - sum(
                    (c_ext[subset[k]] * y[k] for k in range(m)), Fraction(0)
                )
                if reduced > 0:
                    unbounded = True

    if unbounded:
        best, best_vertex = None, None
    if best is not None and sp.negated_objective:
        best = -best
    return OracleResult(
        feasible=feasible,
        unbounded=unbounded,
        optimal_value=best,
        optimal_vertex=best_vertex,
        vertices=tuple(sorted(vertices)),
    )


# Small integers or quotients with denominators up to 12, so that
# `_integer_rows` has rows to rescale; zero is drawn often.
NUMBERS = st.one_of(
    st.integers(-4, 4).map(F),
    st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
)
RHS = st.one_of(st.just(F(0)), NUMBERS)  # rhs 0 makes degenerate vertices


@st.composite
def small_problems(draw):
    """m, p <= 4 after standardization: mixed relations, both senses,
    degenerate and all-zero rows."""
    p = draw(st.integers(1, 4))
    variables = tuple(f"x{j}" for j in range(p))
    constraints = []
    rows_left = 4
    while rows_left and (not constraints or draw(st.booleans())):
        relation = draw(st.sampled_from(list(Relation)))
        if relation is Relation.EQ and rows_left < 2:
            relation = Relation.LE
        rows_left -= 2 if relation is Relation.EQ else 1
        zero_row = draw(st.integers(0, 4)) == 0
        coeffs = {v: F(0) if zero_row else draw(NUMBERS) for v in variables}
        constraints.append(Constraint(f"c{len(constraints)}", coeffs, relation, draw(RHS)))
    objective = {v: draw(NUMBERS) for v in variables}
    sense = draw(st.sampled_from(list(Sense)))
    return af.standardize(GeneralProblem(sense, objective, tuple(constraints), variables))


@settings(max_examples=300, deadline=None)
@given(small_problems())
# c1 reads x1 + s1 = -1: a free row prunes the root.
@example(problem_from("max: x1;\nc1: -x1 >= 1;\nc2: x1 <= 1;\n"))
# c1 reads -x1 + s1 = -1: the prefix (s1), with x1 passed by, pivots on
# c1 and fixes s1 = -1.
@example(problem_from("max: x1;\nc1: x1 >= 1;\nc2: -x1 >= 0;\nc3: x1 <= 2;\n"))
def test_oracle_matches_reference_enumeration(sp):
    assert sp.m <= 4 and sp.p <= 4
    assert enumerate_vertices(sp) == reference_enumerate_vertices(sp)


def test_walk_does_not_recurse_once_per_basis_column():
    # 60 rows x1 <= k: m = 60 basis columns out of 61, which a walk that
    # recursed per column could not reach under this limit.
    sp = problem_from("max: x1;\n" + "".join(f"x1 <= {k};\n" for k in range(1, 61)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        result = enumerate_vertices(sp)
    finally:
        sys.setrecursionlimit(limit)
    assert result.vertices == ((F(0),), (F(1),))
    assert result.optimal_value == F(1)


@pytest.mark.parametrize("shape", list(Shape))
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_matches_reference_on_6x6_generated(seed, shape):
    sp = af.standardize(generate_lp(seed, 6, 6, shape=shape))
    assert (sp.m, sp.p) == (6, 6)
    assert enumerate_vertices(sp) == reference_enumerate_vertices(sp)


def _rational_problem(seed: int, m: int, p: int) -> StandardProblem:
    """Rational coefficients, with a first >= row whose positive x1
    coefficient standardizes to A[0][0] < 0."""
    rng = random.Random(f"{seed}:{m}:{p}")
    variables = tuple(f"x{j}" for j in range(1, p + 1))

    def number(lo: int) -> F:
        return F(rng.randint(lo, 9), rng.randint(1, 6))

    constraints = [
        Constraint(
            f"c{i}",
            {v: number(1 if i == 0 and j == 0 else -9) for j, v in enumerate(variables)},
            Relation.GE if i == 0 else rng.choice([Relation.LE, Relation.GE]),
            number(-9),
        )
        for i in range(m)
    ]
    objective = {v: number(-9) for v in variables}
    return af.standardize(GeneralProblem(Sense.MAX, objective, tuple(constraints), variables))


@pytest.mark.parametrize("m, p", [(2, 3), (3, 4), (4, 5), (5, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_reference_after_a_negative_pivot(seed, m, p):
    # The walk's first step pivots on A[0][0], so every later step divides
    # by a negative pivot and the feasibility test must keep its sign.
    sp = _rational_problem(seed, m, p)
    assert sp.A[0][0] < 0
    assert enumerate_vertices(sp) == reference_enumerate_vertices(sp)


@pytest.mark.parametrize(
    "text",
    [
        # x2 repeats x1, x3 is in no row, c3 has no coefficient
        "max: x1 + x2 - x3;\nc1: x1 + x2 <= 4;\nc2: 2 x1 + 2 x2 >= 1;\nc3: 0 x1 <= 2;\n",
        # raising the empty column x3 is a ray
        "max: x1 + x2 + x3;\nc1: x1 + x2 <= 4;\nc2: 2 x1 + 2 x2 >= 1;\nc3: 0 x1 <= 2;\n",
        # the empty row c3 cannot hold
        "max: x1 + x2;\nc1: x1 + x2 <= 4;\nc2: 0 x1 >= 1;\n",
        # x3 = 2 x1 and x4 = -x2 as well as a repeated row
        "max: x1 - x2 + 2 x3 - x4;\nc1: x1 + x2 + 2 x3 - x4 <= 3;\n"
        "c2: -x1 + 3 x2 - 2 x3 - 3 x4 >= -5;\nc3: x1 + x2 + 2 x3 - x4 <= 3;\n",
        # every column is empty
        "max: x1 - x2;\nc1: 0 x1 + 0 x2 <= 1;\nc2: 0 x2 <= 0;\n",
    ],
    ids=["duplicate-and-empty", "empty-column-ray", "empty-row", "multiples", "all-empty"],
)
def test_oracle_matches_reference_on_singular_prefixes(text):
    sp = problem_from(text)
    assert enumerate_vertices(sp) == reference_enumerate_vertices(sp)
