"""Arithmetic backends: exact rationals and epsilon-classified floats."""

import math
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afsimplex import EXACT, FloatMode, parse_lp
from afsimplex.numeric import NEGATIVE, POSITIVE, ZERO, ExactMode, NumericMode


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


EPS = 1e-9
BAND_EDGES = [
    EPS, -EPS, math.nextafter(EPS, 1), math.nextafter(-EPS, -1),
    math.nextafter(EPS, 0), math.nextafter(-EPS, 0),
    0.0, -0.0, math.inf, -math.inf, math.nan,
]


def test_float_sign_band():
    mode = FloatMode(eps=EPS)
    assert mode.sign(5e-10) == ZERO
    assert mode.sign(-5e-10) == ZERO
    assert mode.sign(2e-9) == POSITIVE
    assert mode.sign(-2e-9) == NEGATIVE
    # +-eps, one step past and one step inside each, +-0.0, +-inf and NaN
    assert [mode.sign(x) for x in BAND_EDGES] == [
        ZERO, ZERO, POSITIVE, NEGATIVE, ZERO, ZERO, ZERO, ZERO, POSITIVE, NEGATIVE, ZERO,
    ]


SIGNED = st.one_of(st.integers(), st.fractions(), st.sampled_from([Fraction(0), 0]))


@settings(max_examples=300, deadline=None)
@given(
    mode_x=st.one_of(
        st.tuples(st.just(EXACT), SIGNED),
        st.tuples(
            st.just(FloatMode(EPS)),
            st.one_of(st.floats(), st.sampled_from(BAND_EDGES), SIGNED),
        ),
    )
)
@example(mode_x=(EXACT, Fraction(-1, 10**30)))
@example(mode_x=(EXACT, 0))
def test_sign_is_the_eps_rule_in_both_modes(mode_x):
    # Scans inline sign() as x < -eps and x > eps; the two must agree on
    # every value, the band's edges and NaN (neither) included.
    mode, x = mode_x
    assert (mode.sign(x) < 0) is (x < -mode.eps)
    assert (mode.sign(x) > 0) is (x > mode.eps)
    assert mode.sign(x) in (NEGATIVE, ZERO, POSITIVE)


def test_both_modes_share_one_sign():
    assert ExactMode.sign is FloatMode.sign is NumericMode.sign


def test_float_coerce():
    mode = FloatMode()
    assert mode.coerce("1/4") == 0.25
    assert mode.coerce(2) == 2.0
    assert isinstance(mode.coerce(Fraction(1, 3)), float)


def test_scalar_sign_defaults_to_exact():
    mode = parse_lp("max: x1;\nc1: x1 <= 1;\n").mode
    assert mode is EXACT
    assert mode.sign(Fraction(-2)) == NEGATIVE
    assert mode.sign(Fraction(7)) == POSITIVE
    assert mode.sign(Fraction(1, 10**30)) == POSITIVE


def test_modes_are_frozen():
    with pytest.raises(AttributeError):
        FloatMode().eps = 1.0


# Verbatim copies of both coerce methods as they read before integer
# literals got their own path; the current ones must behave the same.
def reference_exact_coerce(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} given in exact mode; pass int, str or Fraction"
        )
    return Fraction(value)


def reference_float_coerce(value) -> float:
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def outcome(coerce, value):
    """The value and its type, or the exception's type and message."""
    try:
        x = coerce(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(x), x


class SubFraction(Fraction):
    pass


class Level(IntEnum):
    HIGH = 3


TRAP_TEXT = [
    "0." + "0" * 5000 + "1",  # past the int digit limit; float() would read 0.0
    "0" * 5000 + "1",  # an integer past the digit limit
    "1" + "0" * 399, "9" * 400,  # float() would read inf
    "9" * 308, "9" * 309, "1" * 4300, "1" * 4301,
    "2/7", "-3/4", "1/0", "12/", "0.5/2",
    "\u0661\u0662", "\xb2", "1_000", " 7 ", "7\n", "1e5", "1E-3", "-3", "+5", "-0",
    "", "0", "007", ".5", "3.", "2.50", "nan", "inf",
]
DIGITS = st.text("0123456789", min_size=1, max_size=400)
TEXTS = st.one_of(
    st.sampled_from(TRAP_TEXT),
    DIGITS,
    st.integers().map(str),
    st.tuples(DIGITS, DIGITS).map("/".join),
    st.tuples(DIGITS, DIGITS).map(".".join),
    st.text(),
)
VALUES = st.one_of(
    TEXTS,
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.fractions(),
    st.fractions().map(SubFraction),
)


@pytest.mark.parametrize(
    "coerce, reference",
    [(EXACT.coerce, reference_exact_coerce), (FloatMode().coerce, reference_float_coerce)],
    ids=["exact", "float"],
)
@settings(max_examples=400, deadline=None)
@given(value=VALUES)
# the exact type tested first, the Fraction subclass that must pass it
# over, and ints of three kinds
@example(value=7)
@example(value=True)
@example(value=Level.HIGH)
@example(value=SubFraction(3, 4))
def test_coerce_matches_the_fraction_path(coerce, reference, value):
    assert outcome(coerce, value) == outcome(reference, value)


@pytest.mark.parametrize("text", TRAP_TEXT)
def test_coerce_traps_match_the_fraction_path(text):
    assert outcome(EXACT.coerce, text) == outcome(reference_exact_coerce, text)
    assert outcome(FloatMode().coerce, text) == outcome(reference_float_coerce, text)
