"""Problem containers and conversion to the standard maximize/<= form."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import neg
from typing import Iterable, Mapping

from .numeric import EXACT, ExactMode, NumericMode, Value


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class EmptyProblem(ValueError):
    """The problem has no constraints (or no objective) to work with."""


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: Mapping[str, Value]
    relation: Relation
    rhs: Value


@dataclass(frozen=True)
class GeneralProblem:
    """A linear program as written: any sense, any relation per row.

    Every variable is nonnegative.  The variable registry fixes column
    order; when omitted it is derived from order of appearance in
    the objective and then the constraints.  The problem keeps its own
    copy of the objective and of every row's coefficients, with each value
    of the mode's exact type: a mapping whose values already have that
    type is copied as it is, and only the values of any other type go
    through `mode.coerce`.
    """

    sense: Sense
    objective: Mapping[str, Value]
    constraints: tuple[Constraint, ...]
    variables: tuple[str, ...] = ()
    mode: NumericMode = EXACT

    def __post_init__(self):
        registry = list(self.variables)
        seen = set(registry)
        if len(seen) != len(registry):
            raise ValueError("variable names must be unique")
        for coeffs in (self.objective, *[con.coeffs for con in self.constraints]):
            if not seen.issuperset(coeffs):
                new = [var for var in coeffs if var not in seen]
                registry += new
                seen.update(new)
        object.__setattr__(self, "variables", tuple(registry))
        coerce, kind = self.mode.coerce, type(self.mode.zero)
        kinds = {kind}

        def typed(coeffs: Mapping[str, Value]) -> dict[str, Value]:
            if kinds.issuperset(map(type, coeffs.values())):
                return dict(coeffs)
            return {v: x if type(x) is kind else coerce(x) for v, x in coeffs.items()}

        object.__setattr__(self, "objective", typed(self.objective))
        names = [con.name for con in self.constraints]
        if len(set(names)) != len(names):
            raise ValueError("constraint names must be unique")
        coerced = tuple(
            Constraint(
                con.name,
                typed(con.coeffs),
                con.relation,
                con.rhs if type(con.rhs) is kind else coerce(con.rhs),
            )
            for con in self.constraints
        )
        object.__setattr__(self, "constraints", coerced)


@dataclass(frozen=True)
class StandardProblem:
    """max c.x subject to A x <= b, x >= 0, with the name of every row."""

    A: tuple[tuple[Value, ...], ...]
    b: tuple[Value, ...]
    c: tuple[Value, ...]
    variables: tuple[str, ...]
    row_names: tuple[str, ...]
    negated_objective: bool
    mode: NumericMode = EXACT

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def p(self) -> int:
        return len(self.variables)

    def __post_init__(self):
        if self.m == 0 or self.p == 0:
            raise EmptyProblem("standard problem needs at least one row and column")
        for row in self.A:
            if len(row) != self.p:
                raise ValueError("ragged constraint matrix")
        if len(self.A) != self.m or len(self.row_names) != self.m:
            raise ValueError("row metadata out of step with the matrix")

    @cached_property
    def grid(self) -> tuple[tuple[tuple, ...], int]:
        """The slack-basic starting grid, rows [0 | -c] and [b_i | A_i],
        as `numerators` over one common denominator D0; built once per
        problem, and negated on the numerators."""
        (top, *rows), den = numerators(
            ((self.mode.zero, *self.c), *((b, *a) for b, a in zip(self.b, self.A))),
            self.mode,
        )
        return ((top[0], *[-x for x in top[1:]]), *rows), den


def numerators(rows: Iterable[Iterable], mode: NumericMode) -> tuple[tuple[tuple, ...], int]:
    """A grid of values as (numerators, denominator).

    In exact mode the denominator is D0, the least common multiple of the
    entries' denominators, and the numerators are ints; an entry that is
    neither an int nor a Fraction goes through `mode.coerce`, which
    refuses a float.  In float mode the values are their own numerators
    over 1.
    """
    if not isinstance(mode, ExactMode):
        return tuple(map(tuple, rows)), 1
    fracs = [
        [x if isinstance(x, (int, Fraction)) else mode.coerce(x) for x in row]
        for row in rows
    ]
    den = lcm(*[x.denominator for row in fracs for x in row])
    return tuple(
        tuple([x.numerator * (den // x.denominator) for x in row]) for row in fracs
    ), den


def _negation(mode: NumericMode):
    """`-x` for the values of one problem.  In exact mode each value object
    is negated once: parsed and generated problems share one Fraction per
    distinct value, so a memo keyed by identity hits without hashing a
    Fraction.  A float is negated in C, faster than any memo."""
    if not isinstance(mode, ExactMode):
        return neg
    negated: dict[int, Fraction] = {}

    def negate(x: Fraction) -> Fraction:
        y = negated.get(id(x))
        if y is None:
            negated[id(x)] = y = -x
        return y

    return negate


def standardize(gp: GeneralProblem) -> StandardProblem:
    """Rewrite gp as max c.x, A x <= b, x >= 0.

    Minimization flips the objective sign; >= rows are negated; each
    equality splits into a <= pair named "<name>.le" and "<name>.ge".
    """
    mode = gp.mode
    if not gp.constraints:
        raise EmptyProblem("no constraints")
    if not gp.objective:
        raise EmptyProblem("no objective")
    negate = _negation(mode)

    variables = gp.variables
    c = [gp.objective.get(v, mode.zero) for v in variables]
    negated = gp.sense is Sense.MIN
    if negated:
        c = list(map(negate, c))

    rows: list[tuple[Value, ...]] = []
    b: list[Value] = []
    names: list[str] = []

    def emit(con: Constraint, flip: bool, name: str) -> None:
        row = [con.coeffs.get(v, mode.zero) for v in variables]
        rhs = con.rhs
        if flip:
            row = list(map(negate, row))
            rhs = negate(rhs)
        rows.append(tuple(row))
        b.append(rhs)
        names.append(name)

    for con in gp.constraints:
        if con.relation is Relation.EQ:
            emit(con, False, con.name + ".le")
            emit(con, True, con.name + ".ge")
        else:
            emit(con, con.relation is Relation.GE, con.name)

    return StandardProblem(
        A=tuple(rows),
        b=tuple(b),
        c=tuple(c),
        variables=variables,
        row_names=tuple(names),
        negated_objective=negated,
        mode=mode,
    )
