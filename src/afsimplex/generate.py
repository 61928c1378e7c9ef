"""Seeded random instance generation for stress suites and the CLI."""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from operator import mul

from .model import Constraint, GeneralProblem, Relation, Sense


class Shape(Enum):
    FEASIBLE_BIASED = "feasible-biased"
    INFEASIBLE_BIASED = "infeasible-biased"
    DEGENERATE_BIASED = "degenerate-biased"


def _draws(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` values drawn as `count` calls of `rng.randint(lo, hi)` draw
    them: `getrandbits(k)`, k the bit length of the width, drawn again
    while it is at least the width.  The same values, the same state
    after, without randint's three Python calls per value."""
    width = hi - lo + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    values = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        values.append(lo + r)
    return values


class _Fractions(dict):
    """One shared Fraction per int, made on first use, so coercing a
    generated problem builds one Fraction per distinct value."""

    def __missing__(self, value: int) -> Fraction:
        frac = self[value] = Fraction(value)
        return frac


def _coeff_row(rng: random.Random, p: int, lo: int, hi: int) -> list[int]:
    while True:
        row = _draws(rng, p, lo, hi)
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
    anchor = _draws(rng, cols, 0, 3)
    sense = rng.choice([Sense.MAX, Sense.MIN])
    objective = _draws(rng, cols, lo, hi)

    def anchored(tight: bool) -> tuple[list[int], Relation, int]:
        row = _coeff_row(rng, cols, lo, hi)
        value = sum(map(mul, row, anchor))
        relation = rng.choice([Relation.LE, Relation.GE])
        slack = 0 if tight else rng.randint(0, 6)
        rhs = value + slack if relation is Relation.LE else value - slack
        return row, relation, rhs

    recipes: list[tuple[list[int], Relation, int]] = []
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
            recipes.append((row, Relation.GE, rng.randint(1, 6)))
        else:
            row = _coeff_row(rng, cols, lo, hi)
            value = sum(map(mul, row, anchor))
            gap = rng.randint(1, 3)
            recipes.append((row, Relation.LE, value - gap))
            recipes.append((row, Relation.GE, value + gap))
            for _ in range(rows - 2):
                recipes.append(anchored(tight=False))

    shared = _Fractions()

    def linear(row: list[int]) -> dict[str, Fraction]:
        return dict(zip(variables, map(shared.__getitem__, row)))

    constraints = tuple(
        Constraint(f"c{i}", linear(row), relation, shared[rhs])
        for i, (row, relation, rhs) in enumerate(recipes, start=1)
    )
    return GeneralProblem(
        sense=sense,
        objective=linear(objective),
        constraints=constraints,
        variables=variables,
    )
