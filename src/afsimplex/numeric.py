"""Numeric-mode contexts shared by every piece of the solver.

Two modes exist: exact rational arithmetic (the default everywhere) and
floating point with a tolerance that is applied to *sign classification
only*.  Ratio comparisons and all other ordering decisions use the raw
values; the tolerance never creeps into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Value = Union[Fraction, float]

NEGATIVE = -1
ZERO = 0
POSITIVE = 1


class NumericMode:
    """A mode has four members: the `zero` constant, the `eps` threshold,
    coerce() and sign().  sign() is the eps rule, the one for both modes:
    above eps is positive, below -eps negative, anything else (a NaN
    included) zero.  Callers test a value's sign by comparing sign(x)
    with 0; a scan over many entries inlines the rule as x < -eps and
    x > eps."""

    zero: Value
    eps: Value

    def sign(self, x: Value) -> int:
        eps = self.eps
        if x > eps:
            return POSITIVE
        if x < -eps:
            return NEGATIVE
        return ZERO

    def coerce(self, value) -> Value:
        raise NotImplementedError


@dataclass(frozen=True)
class ExactMode(NumericMode):
    """Exact rational arithmetic on fractions.Fraction."""

    zero = Fraction(0)
    eps = 0

    def coerce(self, value) -> Fraction:
        # The commonest type first, by exact type; subclasses of Fraction
        # take the general path.
        if type(value) is Fraction:
            return value
        # Floats are refused here on purpose: silently converting one to the
        # exact binary fraction it denotes is never what a caller wants.
        if isinstance(value, float):
            raise TypeError(
                f"float {value!r} given in exact mode; pass int, str or Fraction"
            )
        # An unsigned ASCII integer skips Fraction's regex; int() enforces
        # the same digit limit that Fraction(str) does.
        if isinstance(value, str) and value.isascii() and value.isdigit():
            return Fraction(int(value))
        return Fraction(value)


@dataclass(frozen=True)
class FloatMode(NumericMode):
    """Floating point with |x| <= eps classified as zero."""

    eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")

    zero = 0.0

    def coerce(self, value) -> float:
        if type(value) is float:
            return value
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)


EXACT = ExactMode()
