"""LP text grammar: parsing, errors, and the print round-trip."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.generate import Shape, generate_lp
from afsimplex.lpformat import ParseError, format_lp, parse_lp

from conftest import WALK_TEXT


def test_walk_parses_to_expected_problem():
    gp = parse_lp(WALK_TEXT)
    assert gp.sense is af.Sense.MAX
    assert gp.objective == {"x1": F(3), "x2": F(5)}
    assert [c.name for c in gp.constraints] == ["c1", "c2", "c3", "c4", "c5"]
    assert gp.constraints[2].coeffs == {"x1": F(3), "x2": F(2)}
    assert gp.constraints[2].relation is af.Relation.GE
    assert gp.constraints[2].rhs == F(18)


def test_rationals_survive_exactly():
    gp = parse_lp("max: 1/3 x; c: x <= 2/3;")
    assert gp.objective == {"x": F(1, 3)}
    assert gp.constraints[0].rhs == F(2, 3)


def test_decimals_are_exact():
    gp = parse_lp("max: 0.1 x; c: x <= 2.5;")
    assert gp.objective == {"x": F(1, 10)}
    assert gp.constraints[0].rhs == F(5, 2)


def test_tight_coefficient_and_star_forms():
    gp = parse_lp("max: 3x + 2*y; c: x + y <= 1;")
    assert gp.objective == {"x": F(3), "y": F(2)}


def test_duplicate_terms_sum():
    gp = parse_lp("max: x + x - 3 x; c: x <= 1;")
    assert gp.objective == {"x": F(-1)}


def test_comments_and_whitespace():
    text = """
    # objective first
    max:   x1   ;   # trailing note
    c1 :  x1 <= 7 ;  # bound
    """
    gp = parse_lp(text)
    assert gp.objective == {"x1": F(1)}
    assert gp.constraints[0].rhs == F(7)


def test_unnamed_constraints_are_numbered():
    gp = parse_lp("max: x; x <= 1; y: x <= 2; x <= 3;")
    assert [c.name for c in gp.constraints] == ["c1", "y", "c2"]


@pytest.mark.parametrize(
    "text, names",
    [
        ("max: x1 + x2; c1: x1 <= 4; x2 <= 3;", ["c1", "c2"]),
        ("max: x1 + x2; x1 <= 4; c1: x2 <= 3;", ["c2", "c1"]),
        ("max: x; c2: x <= 1; x <= 2; c1: x <= 3; x <= 4;", ["c2", "c3", "c1", "c4"]),
    ],
    ids=["named-first", "unnamed-first", "skips-every-taken-name"],
)
def test_unnamed_constraints_skip_names_taken_explicitly(text, names):
    assert [c.name for c in parse_lp(text).constraints] == names


def test_duplicate_name_is_reported_at_its_second_use():
    with pytest.raises(ParseError, match="'c1' is used twice") as info:
        parse_lp("max: x;\nc1: x <= 1;\n  c1: x <= 2;\n")
    assert (info.value.line, info.value.column) == (3, 3)


def test_signed_rhs():
    gp = parse_lp("max: x; c: -x <= -2;")
    assert gp.constraints[0].rhs == F(-2)
    assert gp.constraints[0].coeffs == {"x": F(-1)}


def test_leading_sign_on_expression():
    gp = parse_lp("min: -x + y; c: -2x - y >= -4;")
    assert gp.objective == {"x": F(-1), "y": F(1)}
    assert gp.constraints[0].coeffs == {"x": F(-2), "y": F(-1)}


def test_equality_relation():
    gp = parse_lp("max: x; c: x + y = 2;")
    assert gp.constraints[0].relation is af.Relation.EQ


def test_no_constraints_is_an_error():
    with pytest.raises(af.EmptyProblem):
        parse_lp("max: x;")


def test_empty_objective_is_an_error():
    with pytest.raises(ParseError):
        parse_lp("max: ; c: x <= 1;")


def test_missing_semicolon_reports_position():
    with pytest.raises(ParseError) as info:
        parse_lp("max: x\nc: x <= 1;")
    assert info.value.line == 2


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # a tab is one column; a comment and a \r\n line end are skipped
        ("max: x; # objective\r\nc1:\tx <= 1; # cap\r\n\tc2: x @ 2;\n",
         3, 8, "unexpected character '@'"),
        ("max: x;\r\n# note\r\n\tc1:\tx 1;\n", 3, 8, "found '1'"),
        ("max: x;\r\nc1: x <= 1;\r\n\t# last\r\n\tc2: 2.5 x <=", 4, 14, "end of input"),
    ],
    ids=["character", "token", "end"],
)
def test_parse_error_reports_line_and_column(text, line, column, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_lp(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_lp("max: x @ y; c: x <= 1;")


def test_missing_relation():
    with pytest.raises(ParseError, match="expected"):
        parse_lp("max: x; c: x 1;")


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_lp("max: 1/0 x; c: x <= 1;")


def test_wrong_keyword():
    with pytest.raises(ParseError, match="'max' or 'min'"):
        parse_lp("maximize: x; c: x <= 1;")


def test_format_round_trip_walk():
    gp = parse_lp(WALK_TEXT)
    assert parse_lp(format_lp(gp)) == gp


def test_format_round_trip_signs_and_fractions():
    text = "min: -1/2 a + b; c1: -a - 3/7 b <= -2; c2: a = 4;"
    gp = parse_lp(text)
    printed = format_lp(gp)
    assert parse_lp(printed) == gp
    # printing is idempotent once the text has been normalized
    assert format_lp(parse_lp(printed)) == printed


@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 4),
       st.sampled_from(list(Shape)))
@settings(max_examples=40, deadline=None)
def test_format_round_trip_generated(seed, rows, cols, shape):
    gp = generate_lp(seed=seed, rows=rows, cols=cols, shape=shape)
    assert parse_lp(format_lp(gp)) == gp
