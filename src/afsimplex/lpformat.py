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

import math
import re
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


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """The error at character `offset` of `text`; a tab or "\\r" is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


class _Token(NamedTuple):
    kind: str  # ident | number | symbol | end
    text: str
    offset: int


_TOKEN = re.compile(
    r"[ \t\r\n]+|#[^\n]*"
    r"|(?P<number>\d+\.?\d*|\.\d+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<symbol><=|>=|[=:;+*/-])"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, then an end token just past the last of them."""
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        word = match.group()
        # \w holds numerals such as "²" that start no name
        if kind == "bad" or (kind == "ident" and not (word[0].isalpha() or word[0] == "_")):
            raise _error_at(text, match.start(), f"unexpected character {word[0]!r}")
        tokens.append(_Token(kind, word, match.start()))
    end = tokens[-1].offset + len(tokens[-1].text) if tokens else 0
    tokens.append(_Token("end", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str, mode: NumericMode):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode

    def _fail(self, message: str, tok: Optional[_Token] = None) -> ParseError:
        """The error at `tok`, or else at the next token, which it names."""
        if tok is None:
            tok = self.tokens[self.pos]
            message += " (at end of input)" if tok.kind == "end" else f", found {tok.text!r}"
        return _error_at(self.text, tok.offset, message)

    def _take(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self._fail(f"expected {kind if text is None else text!r}")
        self.pos += 1
        return tok

    def _sign(self) -> int:
        """Take an optional "+" or "-": -1 for "-", else 1."""
        text = self.tokens[self.pos].text
        if text != "+" and text != "-":
            return 1
        self.pos += 1
        return -1 if text == "-" else 1

    def _number(self, sign: int) -> Value:
        tok = self._take("number")
        text = tok.text
        if self.tokens[self.pos].text == "/" and self.tokens[self.pos + 1].kind == "number":
            denom = self.tokens[self.pos + 1]
            self.pos += 2
            if "." in text or "." in denom.text:
                raise self._fail("quotient parts must be integers", tok)
            if denom.text.strip("0") == "":
                raise self._fail("zero denominator", denom)
            text = f"{text}/{denom.text}"
        # Python refuses to convert integers of more than 4300 digits, and a
        # float cannot hold a number past about 1.8e308.
        try:
            value = self.mode.coerce(text)
        except (ValueError, OverflowError) as exc:
            raise self._fail(f"cannot read number: {exc}", tok) from exc
        return value if sign > 0 else -value

    def _linexpr(self) -> dict[str, Value]:
        coeffs: dict[str, Value] = {}
        while True:
            sign = self._sign()
            kind = self.tokens[self.pos].kind
            if kind == "number":
                coeff = self._number(sign)
                if self.tokens[self.pos].text == "*":
                    self.pos += 1
            elif kind == "ident":
                coeff = self.mode.coerce(sign)
            else:
                raise self._fail("expected a term")
            name = self._take("ident").text
            coeffs[name] = coeffs.get(name, self.mode.zero) + coeff
            if self.tokens[self.pos].text not in ("+", "-"):
                return coeffs

    def parse(self) -> GeneralProblem:
        tokens = self.tokens
        head = tokens[0]
        if head.kind == "end":
            raise ParseError("empty input", 1, 1)
        if head.text not in ("max", "min"):
            raise self._fail("expected 'max' or 'min'")
        self.pos = 1
        sense = Sense.MAX if head.text == "max" else Sense.MIN
        self._take("symbol", ":")
        if tokens[self.pos].text == ";":
            raise self._fail("empty objective")
        objective = self._linexpr()
        self._take("symbol", ";")

        # Unnamed rows are named once every row is read: each takes the next
        # "c<k>" that no row names explicitly.
        rows: list[tuple[Optional[str], dict[str, Value], Relation, Value]] = []
        named: set[str] = set()
        while tokens[self.pos].kind != "end":
            tok = tokens[self.pos]
            name = None
            if tok.kind == "ident" and tokens[self.pos + 1].text == ":":
                name = tok.text
                if name in named:
                    raise self._fail(f"constraint name {name!r} is used twice", tok)
                named.add(name)
                self.pos += 2
            coeffs = self._linexpr()
            relation = tokens[self.pos].text
            if relation not in ("<=", ">=", "="):
                raise self._fail("expected '<=', '>=' or '='")
            self.pos += 1
            rhs = self._number(self._sign())
            self._take("symbol", ";")
            rows.append((name, coeffs, Relation(relation), rhs))

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
    return _Parser(text, mode).parse()


def _format_value(x: Value) -> str:
    """The exact integer or quotient `x` denotes.  A float is written this
    way too, never in exponent form, which the grammar cannot read."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot write {x!r} as LP text")
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


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
