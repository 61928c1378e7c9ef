"""Seeded random instance generation for stress suites and the CLI."""

from __future__ import annotations

import random
from enum import Enum

from .model import Constraint, GeneralProblem, Relation, Sense


class Shape(Enum):
    FEASIBLE_BIASED = "feasible-biased"
    INFEASIBLE_BIASED = "infeasible-biased"
    DEGENERATE_BIASED = "degenerate-biased"


def _coeff_row(rng: random.Random, p: int, lo: int, hi: int) -> list[int]:
    while True:
        row = [rng.randint(lo, hi) for _ in range(p)]
        if any(row):
            return row


def generate_lp(
    seed: int,
    rows: int,
    cols: int,
    coeff_range: tuple[int, int] = (-9, 9),
    shape: Shape = Shape.FEASIBLE_BIASED,
) -> GeneralProblem:
    """Deterministically generate an integer-coefficient problem.

    The same arguments always produce the same problem.  Shapes bias the
    geometry: feasible-biased anchors every row around a planted
    nonnegative point, infeasible-biased adds an outright contradiction,
    and degenerate-biased makes several rows tight at a common lattice
    point (in [0, 3]^cols) to provoke ties and zero-ratio pivots.
    """
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
        row = _coeff_row(rng, cols, lo, hi)
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
            row = [-abs(x) for x in _coeff_row(rng, cols, lo, hi)]
            recipes.append((dict(zip(variables, row)), Relation.GE, rng.randint(1, 6)))
        else:
            row = _coeff_row(rng, cols, lo, hi)
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
