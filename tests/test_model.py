"""General-form modeling and conversion to the standard max/<= form."""

import random
from fractions import Fraction as F

import pytest

import afsimplex as af


def test_walk_standardization(walk_sp):
    assert walk_sp.A == (
        (F(1), F(0)),
        (F(0), F(-1)),
        (F(-3), F(-2)),
        (F(-1), F(-1)),
        (F(-5), F(-4)),
    )
    assert walk_sp.b == (F(4), F(-6), F(-18), F(-8), F(-32))
    assert walk_sp.c == (F(3), F(5))
    assert walk_sp.variables == ("x1", "x2")
    assert walk_sp.negated_objective is False


def test_min_sense_negates_objective():
    sp = af.standardize(af.parse_lp("min: -x1;\nc1: x1 <= 1;\n"))
    assert sp.c == (F(1),)
    assert sp.negated_objective is True
    assert sp.A == ((F(1),),)


def test_equality_splits_into_pair():
    sp = af.standardize(af.parse_lp("max: x1;\nc: x1 + x2 = 2;\n"))
    assert sp.A == ((F(1), F(1)), (F(-1), F(-1)))
    assert sp.b == (F(2), F(-2))
    assert sp.row_names == ("c.le", "c.ge")


def test_ge_rows_are_negated(walk_problem, walk_sp):
    # c1 is a <= row and is kept as written; c2..c5 are >= rows, negated
    # together with their right-hand sides, and every row keeps its name
    assert walk_sp.row_names == ("c1", "c2", "c3", "c4", "c5")
    relations = [con.relation for con in walk_problem.constraints]
    assert relations == [af.Relation.LE] + [af.Relation.GE] * 4
    for con, row, rhs in zip(walk_problem.constraints, walk_sp.A, walk_sp.b):
        sign = -1 if con.relation is af.Relation.GE else 1
        assert row == tuple(sign * con.coeffs.get(v, 0) for v in walk_sp.variables)
        assert rhs == sign * con.rhs


def test_variable_registry_by_appearance():
    gp = af.parse_lp("max: b + a;\nc1: z + a <= 1;\n")
    assert gp.variables == ("b", "a", "z")


def test_no_constraints_rejected():
    gp = af.GeneralProblem(
        sense=af.Sense.MAX, objective={"x": 1}, constraints=()
    )
    with pytest.raises(af.EmptyProblem):
        af.standardize(gp)


def test_no_objective_rejected():
    gp = af.GeneralProblem(
        af.Sense.MAX, {}, (af.Constraint("c1", {"x": 1}, af.Relation.LE, 1),)
    )
    with pytest.raises(af.EmptyProblem, match="^no objective$"):
        af.standardize(gp)


_EMPTY = "standard problem needs at least one row and column"


@pytest.mark.parametrize(
    "A, b, variables, row_names, error, message",
    [
        ((), (), ("x",), (), af.EmptyProblem, _EMPTY),
        (((1,),), (1,), (), ("c1",), af.EmptyProblem, _EMPTY),
        (((1, 2), (1,)), (1, 1), ("x", "y"), ("c1", "c2"), ValueError,
         "ragged constraint matrix"),
        (((1,),), (1,), ("x",), ("c1", "c2"), ValueError,
         "row metadata out of step with the matrix"),
        (((1,), (2,)), (1,), ("x",), ("c1",), ValueError,
         "row metadata out of step with the matrix"),
    ],
    ids=["no-rows", "no-columns", "ragged", "row-names", "extra-row"],
)
def test_standard_problem_rejects_a_malformed_shape(A, b, variables, row_names, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        af.StandardProblem(A, b, (1,) * len(variables), variables, row_names, False)


def test_duplicate_constraint_names_rejected():
    with pytest.raises(ValueError, match="unique"):
        af.GeneralProblem(
            sense=af.Sense.MAX,
            objective={"x": 1},
            constraints=(
                af.Constraint("c", {"x": 1}, af.Relation.LE, 1),
                af.Constraint("c", {"x": 1}, af.Relation.LE, 2),
            ),
        )


def test_duplicate_variable_names_rejected():
    # two columns named x would collapse into one solution entry
    with pytest.raises(ValueError, match="variable names must be unique"):
        af.GeneralProblem(
            af.Sense.MAX,
            {"x": 1},
            (af.Constraint("c1", {"x": 1}, af.Relation.LE, 2),),
            variables=("x", "x"),
        )


def test_values_coerced_to_mode():
    gp = af.parse_lp("max: 3 x;\nc1: x <= 4;\n")
    assert isinstance(gp.objective["x"], F)
    assert isinstance(gp.constraints[0].rhs, F)


def test_values_of_the_mode_type_are_kept_and_floats_still_refused():
    half = F(1, 2)
    gp = af.GeneralProblem(
        af.Sense.MAX, {"x": half}, (af.Constraint("c1", {"x": 3}, af.Relation.LE, half),)
    )
    assert gp.objective["x"] is half and gp.constraints[0].rhs is half
    assert type(gp.constraints[0].coeffs["x"]) is F
    for objective, coeffs, rhs in (({"x": 0.5}, {"x": 1}, 1), ({"x": 1}, {"x": 0.5}, 1),
                                   ({"x": 1}, {"x": 1}, 0.5)):
        with pytest.raises(TypeError, match="exact mode"):
            af.GeneralProblem(
                af.Sense.MAX, objective, (af.Constraint("c1", coeffs, af.Relation.LE, rhs),)
            )
    floats = af.GeneralProblem(
        af.Sense.MAX, {"x": 0.5}, (af.Constraint("c1", {"x": "1/4"}, af.Relation.LE, 2),),
        mode=af.FloatMode(1e-9),
    )
    assert floats.objective["x"] == 0.5 and floats.constraints[0].coeffs["x"] == 0.25
    assert type(floats.constraints[0].rhs) is float


def test_rows_of_any_input_type_store_the_mode_type():
    typed = {"x": F(2), "y": F(-1, 3)}
    exact = af.GeneralProblem(
        af.Sense.MAX,
        {"x": 1, "y": "1/2"},
        (
            af.Constraint("c1", typed, af.Relation.LE, F(4)),
            af.Constraint("c2", {"x": 3, "y": F(1)}, af.Relation.GE, "5/2"),
            af.Constraint("c3", {"x": "7", "y": -2}, af.Relation.EQ, 0),
        ),
    )
    floats = af.GeneralProblem(
        af.Sense.MIN,
        {"x": 1.0, "y": F(1, 2)},
        (
            af.Constraint("c1", {"x": 2.0, "y": -0.25}, af.Relation.LE, 4.0),
            af.Constraint("c2", {"x": 3, "y": "1/4"}, af.Relation.GE, F(5, 2)),
            af.Constraint("c3", typed, af.Relation.EQ, 0),
        ),
        mode=af.FloatMode(1e-9),
    )
    for gp, kind in ((exact, F), (floats, float)):
        values = [*gp.objective.values()]
        for con in gp.constraints:
            values += [*con.coeffs.values(), con.rhs]
        assert {type(x) for x in values} == {kind}
    assert exact.objective == {"x": 1, "y": F(1, 2)} and exact.constraints[2].coeffs["x"] == 7
    # a row typed for exact mode is coerced by a float problem
    assert floats.constraints[2].coeffs == {"x": 2.0, "y": -1 / 3}


def test_a_typed_row_is_copied_not_shared():
    coeffs, objective = {"x": F(1), "y": F(2)}, {"x": F(3)}
    gp = af.GeneralProblem(
        af.Sense.MAX, objective, (af.Constraint("c1", coeffs, af.Relation.LE, F(4)),)
    )
    kept = gp.constraints[0].coeffs
    assert kept == coeffs and kept is not coeffs and gp.objective is not objective
    text = af.format_lp(gp)
    coeffs["x"] = F(9)
    del coeffs["y"]
    objective["z"] = F(1)
    assert gp.constraints[0].coeffs == {"x": F(1), "y": F(2)}
    assert gp.objective == {"x": F(3)} and af.format_lp(gp) == text


def test_a_typed_problem_still_refuses_floats_in_exact_mode():
    for objective, coeffs in (({"x": F(1), "y": 0.5}, {"x": F(1)}), ({"x": F(1)}, {"x": 0.5})):
        with pytest.raises(TypeError, match="float 0.5 given in exact mode"):
            af.GeneralProblem(
                af.Sense.MAX, objective, (af.Constraint("c1", coeffs, af.Relation.LE, F(1)),)
            )


@pytest.mark.parametrize("seed", range(4))
def test_a_problem_rebuilt_from_another_writes_as_one_built_afresh(seed):
    # perfbench's relabel hands a new problem the constraints of an old one,
    # shuffled, with the variables shuffled too
    rng = random.Random(seed)
    gp = af.generate_lp(seed, 4, 5, shape=list(af.Shape)[seed % 3])
    variables = list(gp.variables)
    rng.shuffle(variables)
    constraints = list(gp.constraints)
    rng.shuffle(constraints)
    rebuilt = af.GeneralProblem(
        gp.sense,
        {v: gp.objective[v] for v in variables},
        tuple(constraints),
        variables=tuple(variables),
    )
    # every value of this one is a new object, coerced from its text
    fresh = af.GeneralProblem(
        gp.sense,
        {v: str(gp.objective[v]) for v in variables},
        tuple(
            af.Constraint(
                con.name, {v: str(x) for v, x in con.coeffs.items()}, con.relation, str(con.rhs)
            )
            for con in constraints
        ),
        variables=tuple(variables),
    )
    assert af.format_lp(rebuilt) == af.format_lp(fresh)
    assert rebuilt == fresh
