"""LP text grammar: parsing, errors, and the print round-trip."""

import math
import re
from fractions import Fraction as F
from itertools import count
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.generate import Shape, generate_lp
from afsimplex.lpformat import ParseError, _is_name, format_lp, parse_lp
from afsimplex.model import (
    Constraint,
    EmptyProblem,
    GeneralProblem,
    Relation,
    Sense,
    standardize,
)
from afsimplex.numeric import EXACT, FloatMode, NumericMode, Value

from conftest import WALK_TEXT, ladder_text


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
        # placed at the numerator, whichever part is a decimal
        ("max: 1.5/2 x;\nc1: x <= 1;\n", 1, 6, "quotient parts must be integers"),
        ("max: x;\nc1: 2/0.5 x <= 1;\n", 2, 5, "quotient parts must be integers"),
        ("max: 3 * ;\nc1: x <= 1;\n", 1, 10, "expected 'ident', found ';'"),
    ],
    ids=["character", "token", "end", "decimal-numerator", "decimal-denominator",
         "coefficient-alone"],
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


# Floats whose repr has an exponent, down to the smallest subnormal and
# up to the largest finite value.
_EDGE_FLOATS = (5e-324, 1e-05, 1e16, 1e23, 1.7976931348623157e308)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    _EDGE_FLOATS + tuple(-x for x in _EDGE_FLOATS)
)


@given(st.sampled_from(list(Sense)), st.lists(_FLOATS, min_size=2, max_size=2),
       st.lists(st.tuples(_FLOATS, _FLOATS, st.sampled_from(list(Relation)), _FLOATS),
                min_size=1, max_size=3))
@example(Sense.MAX, [5e-324, 1e-05],
         [(1e16, 1.7976931348623157e308, Relation.LE, 1e23),
          (-5e-324, -1e-05, Relation.GE, -1.7976931348623157e308)])
@settings(max_examples=200, deadline=None)
def test_format_round_trip_float(sense, objective, rows):
    mode = FloatMode()
    gp = GeneralProblem(
        sense,
        dict(zip(("x1", "x2"), objective)),
        tuple(Constraint(f"c{i}", {"x1": a, "x2": b}, rel, rhs)
              for i, (a, b, rel, rhs) in enumerate(rows, start=1)),
        mode=mode,
    )
    assert parse_lp(format_lp(gp), mode) == gp


def test_format_refuses_a_problem_without_variables():
    gp = GeneralProblem(Sense.MAX, {}, (Constraint("c1", {}, Relation.LE, 1),))
    with pytest.raises(EmptyProblem, match="no variables"):
        format_lp(gp)


@pytest.mark.parametrize("variables", [(), ("x1", "x2")], ids=["named-by-rows", "registry"])
def test_format_refuses_a_problem_without_an_objective(variables):
    # written as "max: 0 x1;" it would read back as a problem that
    # standardize takes
    gp = GeneralProblem(
        Sense.MAX, {}, (Constraint("c1", {"x1": 1}, Relation.LE, 4),), variables=variables
    )
    with pytest.raises(EmptyProblem, match="no objective"):
        standardize(gp)
    with pytest.raises(EmptyProblem, match="^no objective$"):
        format_lp(gp)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_format_refuses_a_value_lp_text_cannot_hold(bad):
    row = Constraint("c1", {"x": 1.0}, Relation.LE, bad)
    gp = GeneralProblem(Sense.MAX, {"x": 1.0}, (row,), mode=FloatMode())
    with pytest.raises(ValueError, match="cannot write"):
        format_lp(gp)


@pytest.mark.parametrize(
    "variable, row, bad",
    [("2x", "c1", "2x"), ("x y", "c1", "x y"), ("", "c1", ""), ("x", "1c", "1c")],
    ids=["leading-digit", "space", "empty", "row-leading-digit"],
)
def test_format_refuses_a_name_lp_text_cannot_hold(variable, row, bad):
    # "2x" would read back as 2 x; the others would not parse at all
    con = Constraint(row, {variable: 1}, Relation.LE, 1)
    gp = GeneralProblem(Sense.MAX, {variable: 1}, (con,))
    with pytest.raises(ValueError, match=re.escape(f"cannot write the name {bad!r}")):
        format_lp(gp)


@pytest.mark.parametrize("name", ["é", "_x", "x²"])
def test_format_round_trip_of_a_name_beyond_ascii_letters(name):
    con = Constraint(name, {name: 2}, Relation.LE, 3)
    gp = GeneralProblem(Sense.MAX, {name: 1}, (con,))
    assert parse_lp(format_lp(gp)) == gp


# The parser as it stood before its tokens carried offsets instead of lines
# and columns, kept verbatim as the reference that the property tests below
# hold `parse_lp` to: the same problem, or the same error at the same place.

class _Token(NamedTuple):
    kind: str  # ident | number | symbol
    text: str
    line: int
    column: int


_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|#[^\n]*"
    r"|(?P<number>\d+\.?\d*|\.\d+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<symbol><=|>=|[=:;+*/-])"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, word = match.lastgroup, match.group()
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind is not None:
            column = match.start() - line_start + 1
            if kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
                kind = "bad"  # \w holds numerals such as "²" that start no name
            if kind == "bad":
                raise ParseError(f"unexpected character {word[0]!r}", line, column)
            tokens.append(_Token(kind, word, line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], mode: NumericMode):
        self.tokens = tokens
        self.pos = 0
        self.mode = mode

    def _peek(self, offset: int = 0) -> Optional[_Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _fail(self, message: str) -> ParseError:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            return ParseError(message + " (at end of input)", line, col)
        return ParseError(message + f", found {tok.text!r}", tok.line, tok.column)

    def _take(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self._peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self._fail(f"expected {want!r}")
        self.pos += 1
        return tok

    def _at_symbol(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == "symbol" and tok.text == text

    def _number(self) -> Value:
        tok = self._take("number")
        if self._at_symbol("/"):
            nxt = self._peek(1)
            if nxt is not None and nxt.kind == "number":
                self.pos += 1
                denom = self._take("number")
                if "." in tok.text or "." in denom.text:
                    raise ParseError(
                        "quotient parts must be integers", tok.line, tok.column
                    )
                if denom.text.strip("0") == "":
                    raise ParseError("zero denominator", denom.line, denom.column)
                return self._coerce(f"{tok.text}/{denom.text}", tok)
        return self._coerce(tok.text, tok)

    def _coerce(self, text: str, tok: _Token) -> Value:
        # Python refuses to convert integers of more than 4300 digits, and a
        # float cannot hold a number past about 1.8e308.
        try:
            return self.mode.coerce(text)
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"cannot read number: {exc}", tok.line, tok.column) from exc

    def _linexpr(self) -> dict[str, Value]:
        coeffs: dict[str, Value] = {}
        sign = 1
        if self._at_symbol("+") or self._at_symbol("-"):
            sign = -1 if self._take("symbol").text == "-" else 1
        self._term(coeffs, sign)
        while self._at_symbol("+") or self._at_symbol("-"):
            sign = -1 if self._take("symbol").text == "-" else 1
            self._term(coeffs, sign)
        return coeffs

    def _term(self, coeffs: dict[str, Value], sign: int) -> None:
        tok = self._peek()
        if tok is None:
            raise self._fail("expected a term")
        if tok.kind == "number":
            value = self._number()
            if self._at_symbol("*"):
                self.pos += 1
            ident = self._take("ident")
            coeff = value if sign > 0 else -value
        elif tok.kind == "ident":
            ident = self._take("ident")
            coeff = self.mode.coerce(sign)
        else:
            raise self._fail("expected a term")
        name = ident.text
        coeffs[name] = coeffs.get(name, self.mode.zero) + coeff

    def _rhs(self) -> Value:
        sign = 1
        if self._at_symbol("+") or self._at_symbol("-"):
            sign = -1 if self._take("symbol").text == "-" else 1
        value = self._number()
        return value if sign > 0 else -value

    def parse(self) -> GeneralProblem:
        head = self._peek()
        if head is None:
            raise ParseError("empty input", 1, 1)
        if head.kind != "ident" or head.text not in ("max", "min"):
            raise self._fail("expected 'max' or 'min'")
        self.pos += 1
        sense = Sense.MAX if head.text == "max" else Sense.MIN
        self._take("symbol", ":")
        if self._at_symbol(";"):
            raise self._fail("empty objective")
        objective = self._linexpr()
        self._take("symbol", ";")

        # Unnamed rows are named once every row is read: each takes the next
        # "c<k>" that no row names explicitly.
        rows: list[tuple[Optional[str], dict[str, Value], Relation, Value]] = []
        named: set[str] = set()
        while self._peek() is not None:
            tok = self._peek()
            nxt = self._peek(1)
            name = None
            if (
                tok.kind == "ident"
                and nxt is not None
                and nxt.kind == "symbol"
                and nxt.text == ":"
            ):
                name = tok.text
                if name in named:
                    raise ParseError(
                        f"constraint name {name!r} is used twice", tok.line, tok.column
                    )
                named.add(name)
                self.pos += 2
            coeffs = self._linexpr()
            rel_tok = self._peek()
            if rel_tok is None or rel_tok.kind != "symbol" or rel_tok.text not in ("<=", ">=", "="):
                raise self._fail("expected '<=', '>=' or '='")
            self.pos += 1
            relation = Relation(rel_tok.text)
            rhs = self._rhs()
            self._take("symbol", ";")
            rows.append((name, coeffs, relation, rhs))

        if not rows:
            raise EmptyProblem("a problem needs at least one constraint")
        auto = (f"c{k}" for k in count(1) if f"c{k}" not in named)
        return GeneralProblem(
            sense=sense,
            objective=objective,
            constraints=tuple(
                Constraint(name or next(auto), coeffs, relation, rhs)
                for name, coeffs, relation, rhs in rows
            ),
            mode=self.mode,
        )


def reference_parse_lp(text: str, mode: NumericMode = EXACT) -> GeneralProblem:
    return _Parser(_tokenize(text), mode).parse()


def parsed(parse, text, mode):
    """The problem with the type and repr of each of its values, or the
    error's type, message, line and column."""
    try:
        problem = parse(text, mode)
    except (ParseError, EmptyProblem) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    # -0.0 == 0.0 == F(0), so problem equality alone cannot tell them apart
    values = list(problem.objective.values())
    for con in problem.constraints:
        values += [*con.coeffs.values(), con.rhs]
    return problem, [(type(x), repr(x)) for x in values]


MODES = [EXACT, FloatMode(1e-9)]

# Whole statements reach deep parser states; single symbols, numbers and
# characters break them anywhere, including numerals that start no name.
FRAGMENTS = [
    "max: x + y;", "min: -x;", "c1: x <= 1;", "c2: 2 x - 1/2 y >= -3;", "x + 2*y = 4;",
    "c9: - 0 x <= -0;",
    "max", "min", ":", ";", "+", "-", "*", "/", "<=", ">=", "=", "<",
    " ", "\t", "\n", "\r\n", "\r", "# note\n", "#", "# end",
    "x", "y2", "c1", "_z", "é", "一", "Ⅻ", "²", "½", "٣", "\xa0", "\x0b",
    "0", "7", "12", "2.5", ".5", "3.", "1/3", "1/0", "4/00", "0.5/2",
]


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
@given(text=st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
# float mode reads "- 0 x" as 0.0 but a "-0" right-hand side as -0.0
@example(text="max: x + y;c9: - 0 x <= -0;# end")
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference_parser(mode, text):
    assert parsed(parse_lp, text, mode) == parsed(reference_parse_lp, text, mode)


def test_generated_ladders_parse_as_the_reference_does():
    for n in (10, 20, 30, 40, 60, 80, 100):
        for shape in Shape:
            text = ladder_text(n, shape)
            for mode in MODES:
                assert parsed(parse_lp, text, mode) == parsed(reference_parse_lp, text, mode)


@pytest.mark.parametrize("mode", MODES, ids=["exact", "float"])
def test_errors_in_a_large_input_are_placed_as_the_reference_places_them(mode):
    text = ladder_text(100, Shape.FEASIBLE_BIASED)
    middle = len(text) // 2
    cut = text.index(";\n", middle)  # the last statement loses its ";"
    for broken, message in [
        (text[:middle] + "@" + text[middle:], "unexpected character '@'"),
        (text + "@", "unexpected character '@'"),
        (text[:cut], "(at end of input)"),
    ]:
        error = parsed(parse_lp, broken, mode)
        assert message in error[1]
        assert error == parsed(reference_parse_lp, broken, mode)


@pytest.mark.parametrize(
    "mode, kind", [(EXACT, F), (FloatMode(1e-9), float)], ids=["exact", "float"]
)
def test_ladder_values_have_the_mode_type(mode, kind):
    # 1 == 1.0 == F(1), so problem equality cannot tell a float from a Fraction
    text = ladder_text(20, Shape.FEASIBLE_BIASED) + "q: 1/2 x1 + 0.25 x2 - 7 x3 <= 3/4;\n"
    problem = parse_lp(text, mode)
    values = list(problem.objective.values())
    for con in problem.constraints:
        values += [*con.coeffs.values(), con.rhs]
    assert len(values) > 400
    assert {type(x) for x in values} == {kind}


# The writer as it stood before it read each value as one integer ratio,
# kept verbatim as the reference that `format_lp` is held to below: the
# same bytes, or the same ValueError, whenever the text restores the
# problem's variable registry.

def _reference_format_value(x: Value) -> str:
    """The exact integer or quotient `x` denotes.  A float is written this
    way too, never in exponent form, which the grammar cannot read."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot write {x!r} as LP text")
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


def _reference_format_linexpr(coeffs, variables) -> str:
    parts: list[str] = []
    for var in variables:
        if var not in coeffs:
            continue
        value = coeffs[var]
        magnitude = -value if value < 0 else value
        lead = "-" if value < 0 else ("+" if parts else "")
        body = var if magnitude == 1 else f"{_reference_format_value(magnitude)} {var}"
        parts.append(f"{lead} {body}".strip() if parts else (lead + body))
    return " ".join(parts) if parts else "0 " + variables[0]


def reference_format_lp(gp: GeneralProblem) -> str:
    """Render a problem back to LP text; parsing the output restores it.
    A name or value the grammar cannot read back raises ValueError."""
    if not gp.variables:
        raise EmptyProblem("a problem with no variables has no LP text")
    for name in (*gp.variables, *(con.name for con in gp.constraints)):
        # "2x" would read back as 2 x
        if not _is_name(name):
            raise ValueError(f"cannot write the name {name!r} as LP text")
    lines = [f"{gp.sense.value}: {_reference_format_linexpr(gp.objective, gp.variables)};"]
    for con in gp.constraints:
        expr = _reference_format_linexpr(con.coeffs, gp.variables)
        lines.append(f"{con.name}: {expr} {con.relation.value} {_reference_format_value(con.rhs)};")
    return "\n".join(lines) + "\n"


def written(write, gp):
    """The text, or the error's type and message."""
    try:
        return write(gp)
    except ValueError as exc:
        return type(exc), str(exc)


_HUGE = st.integers(10**3990, 10**4000)  # numerators of about 4,000 digits
EXACT_VALUES = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-7, 3), F(10**4000 - 1, 3)]),
    st.integers(-12, 12).map(F),
    st.fractions(),
    st.builds(F, _HUGE | _HUGE.map(lambda x: -x), st.integers(1, 10**6)),
)
FLOAT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
POOL = ("x1", "x2", "x3", "x4")


# Values that equal another, or 0, in the writer's per-call memo: each use
# is a fresh object of its own.
TWINS = {EXACT: (F(3, 2), F(-3, 2), F(1), F(0)), FloatMode(): (0.0, -0.0, 1.5, -1.5, 1.0)}


@st.composite
def problems(draw, values, mode: NumericMode, registry: bool = False):
    """A problem over some of POOL: any variable may be missing from the
    objective or from any row.  Its registry is derived from the terms, or,
    with `registry`, listed explicitly: reordered, with unused variables.
    Each value is drawn afresh, or one drawn value object fills every
    term, or each value is a new copy of one of the mode's TWINS, so the
    writer's memo by value object meets hits and equal non-identical
    values alike."""
    how = draw(st.sampled_from(["fresh", "shared", "twins"]))
    if how == "shared":
        shared = draw(values)
        values = st.just(shared)
    elif how == "twins":
        values = st.sampled_from(TWINS[mode]).map(lambda x: type(x)(str(x)))

    def terms():
        names = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)))
        return {name: draw(values) for name in names}

    objective = terms()
    rows = tuple(
        Constraint(f"c{k}", terms(), draw(st.sampled_from(list(Relation))), draw(values))
        for k in range(1, draw(st.integers(1, 3)) + 1)
    )
    mentioned = set(objective).union(*(row.coeffs for row in rows))
    if registry:
        names = draw(st.permutations(POOL))
        variables = tuple(name for name in names if name in mentioned or draw(st.booleans()))
    else:
        variables = ()
    sense = draw(st.sampled_from(list(Sense)))
    return GeneralProblem(sense, objective, rows, variables=variables, mode=mode)


@pytest.mark.parametrize(
    "values, mode", [(EXACT_VALUES, EXACT), (FLOAT_VALUES, FloatMode())], ids=["exact", "float"]
)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_format_matches_reference_writer(values, mode, data):
    gp = data.draw(problems(values, mode))
    if gp.variables and not gp.objective:  # the reference wrote "max: 0 x1;"
        assert written(format_lp, gp) == (EmptyProblem, "no objective")
    else:
        assert written(format_lp, gp) == written(reference_format_lp, gp)


@pytest.mark.parametrize("mode", [EXACT, FloatMode()], ids=["exact", "float"])
def test_format_of_problems_written_in_turn_matches_the_reference(mode):
    # Each problem is dropped before the next is built, so the next one's
    # new values may take the ids of the last one's: a memo kept from one
    # call to the next would write the old values.
    for k in range(300):
        values = [mode.coerce(F(k * j + 1, j + 2) * (-1) ** j) for j in range(4)]
        gp = GeneralProblem(
            Sense.MAX,
            {"x1": values[0], "x2": values[1]},
            (Constraint("c1", {"x1": values[2], "x2": values[0]}, Relation.LE, values[3]),),
            mode=mode,
        )
        del values
        assert format_lp(gp) == reference_format_lp(gp)
        del gp


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("place", ["objective", "coefficient", "rhs"])
def test_format_refuses_as_the_reference_writer_does(place, bad):
    objective = {"x1": bad if place == "objective" else 1.0, "x2": -2.0}
    coeffs = {"x1": -1.0, "x2": bad if place == "coefficient" else 3.0}
    rhs = bad if place == "rhs" else 4.0
    gp = GeneralProblem(
        Sense.MAX, objective, (Constraint("c1", coeffs, Relation.LE, rhs),), mode=FloatMode()
    )
    error = written(format_lp, gp)
    assert error == written(reference_format_lp, gp)
    # a coefficient is refused by its magnitude, a right-hand side as it is
    shown = repr(bad) if place == "rhs" else repr(abs(bad))
    assert error == (ValueError, f"cannot write {shown} as LP text")


# The registry cases: a variable no line names, and an objective that
# omits a variable a later row names ahead of one it does name.
UNUSED = GeneralProblem(
    Sense.MAX, {"x1": 1}, (Constraint("c1", {"x1": 1}, Relation.LE, 4),), variables=("x1", "x2")
)
REORDERED = GeneralProblem(
    Sense.MAX,
    {"x2": 1},
    (Constraint("c1", {"x1": 1, "x2": 1}, Relation.LE, 4),),
    variables=("x1", "x2"),
)


@pytest.mark.parametrize(
    "gp, text",
    [
        (UNUSED, "max: x1 + 0 x2;\nc1: x1 <= 4;\n"),
        (REORDERED, "max: 0 x1 + x2;\nc1: x1 + x2 <= 4;\n"),
    ],
    ids=["unused", "reordered"],
)
def test_format_names_every_registry_variable_in_order(gp, text):
    assert format_lp(gp) == text
    assert parse_lp(text).variables == ("x1", "x2")
    assert standardize(parse_lp(text)) == standardize(gp)


@given(gp=problems(EXACT_VALUES, EXACT, registry=True)
       | problems(FLOAT_VALUES, FloatMode(), registry=True))
@example(gp=UNUSED)
@example(gp=REORDERED)
@settings(max_examples=200, deadline=None)
def test_format_round_trip_keeps_the_registry(gp):
    text = written(format_lp, gp)
    if not gp.objective:  # no variables or no objective, so no LP text
        refusal = "no objective" if gp.variables else "a problem with no variables has no LP text"
        assert text == (EmptyProblem, refusal)
        return
    back = parse_lp(text, gp.mode)
    assert back.variables == gp.variables
    assert standardize(back) == standardize(gp)
    # a problem whose text kept its registry before keeps its bytes
    before = reference_format_lp(gp)
    if parse_lp(before, gp.mode).variables == gp.variables:
        assert text == before
