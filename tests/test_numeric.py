"""Arithmetic backends: exact rationals and epsilon-classified floats."""

from fractions import Fraction

import pytest

from afsimplex import EXACT, ClassifiedZeroDivision, FloatMode, parse_lp
from afsimplex.numeric import NEGATIVE, POSITIVE, ZERO


def test_exact_coerce_accepts_int_str_fraction():
    assert EXACT.coerce(3) == Fraction(3)
    assert EXACT.coerce("2/7") == Fraction(2, 7)
    assert EXACT.coerce("0.25") == Fraction(1, 4)
    assert EXACT.coerce(Fraction(5, 9)) == Fraction(5, 9)


def test_exact_coerce_rejects_float():
    with pytest.raises(TypeError, match="exact mode"):
        EXACT.coerce(0.5)


def test_exact_sign():
    assert EXACT.sign(Fraction(-1, 10**12)) == NEGATIVE
    assert EXACT.sign(Fraction(0)) == ZERO
    assert EXACT.sign(Fraction(1, 10**12)) == POSITIVE


def test_float_sign_band():
    mode = FloatMode(eps=1e-9)
    assert mode.sign(5e-10) == ZERO
    assert mode.sign(-5e-10) == ZERO
    assert mode.sign(2e-9) == POSITIVE
    assert mode.sign(-2e-9) == NEGATIVE


def test_float_coerce():
    mode = FloatMode()
    assert mode.coerce("1/4") == 0.25
    assert mode.coerce(2) == 2.0
    assert isinstance(mode.coerce(Fraction(1, 3)), float)


def test_div_raises_on_classified_zero():
    with pytest.raises(ClassifiedZeroDivision):
        EXACT.div(Fraction(1), Fraction(0))
    # 1e-12 is inside the default epsilon band, so it counts as zero
    with pytest.raises(ClassifiedZeroDivision):
        FloatMode().div(1.0, 1e-12)


def test_float_div_outside_band():
    assert FloatMode().div(1.0, 0.5) == 2.0


def test_exact_div_of_integers_is_a_fraction():
    # the ratio tests divide two numerators over one denominator
    q = EXACT.div(-6, 4)
    assert isinstance(q, Fraction) and q == Fraction(-3, 2)
    with pytest.raises(ClassifiedZeroDivision):
        EXACT.div(5, 0)


def test_scalar_sign_defaults_to_exact():
    mode = parse_lp("max: x1;\nc1: x1 <= 1;\n").mode
    assert mode is EXACT
    assert mode.sign(Fraction(-2)) == NEGATIVE
    assert mode.sign(Fraction(7)) == POSITIVE
    assert mode.sign(Fraction(1, 10**30)) == POSITIVE


def test_modes_are_frozen():
    with pytest.raises(AttributeError):
        FloatMode().eps = 1.0
