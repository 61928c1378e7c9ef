"""A small LP text format.

    problem    := objective constraint+
    objective  := ("max" | "min") ":" linexpr ";"
    constraint := [name ":"] linexpr ("<=" | ">=" | "=") number ";"
    linexpr    := [sign] term (("+" | "-") term)*
    term       := [number ["*"]] identifier
    number     := integer | decimal | integer "/" integer

Whitespace is free-form, "#" comments run to end of line, variables are
implicitly nonnegative, duplicate terms for one variable are summed, and
decimals and quotients are read exactly in rational mode.  As a
convenience, the right-hand side number may carry a leading sign.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Optional

from .model import Constraint, EmptyProblem, GeneralProblem, Relation, Sense
from .numeric import EXACT, NumericMode, Value


class ParseError(ValueError):
    """Syntax or structure error, carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


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


def parse_lp(text: str, mode: NumericMode = EXACT) -> GeneralProblem:
    """Parse LP text into a GeneralProblem (exact rationals by default)."""
    return _Parser(_tokenize(text), mode).parse()


def _format_value(x: Value) -> str:
    if isinstance(x, float):
        return repr(x)
    frac = Fraction(x)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def _format_linexpr(coeffs, variables) -> str:
    parts: list[str] = []
    for var in variables:
        if var not in coeffs:
            continue
        value = coeffs[var]
        magnitude = -value if value < 0 else value
        lead = "-" if value < 0 else ("+" if parts else "")
        body = var if magnitude == 1 else f"{_format_value(magnitude)} {var}"
        parts.append(f"{lead} {body}".strip() if parts else (lead + body))
    return " ".join(parts) if parts else "0 " + variables[0]


def format_lp(gp: GeneralProblem) -> str:
    """Render a problem back to LP text; parsing the output restores it."""
    lines = [f"{gp.sense.value}: {_format_linexpr(gp.objective, gp.variables)};"]
    for con in gp.constraints:
        expr = _format_linexpr(con.coeffs, gp.variables)
        lines.append(f"{con.name}: {expr} {con.relation.value} {_format_value(con.rhs)};")
    return "\n".join(lines) + "\n"
