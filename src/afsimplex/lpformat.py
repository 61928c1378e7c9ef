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
from functools import lru_cache
from itertools import count, islice
from typing import Optional

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


_NAME = re.compile(r"[^\W\d]\w*")
# Each match skips whitespace and comments, then takes one token, or none at
# the end of the text, where every group is left empty.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"(?:(?P<number>\d+\.?\d*|\.\d+)"
    rf"|(?P<ident>{_NAME.pattern})"
    r"|(?P<symbol><=|>=|[=:;+*/-])"
    r"|(?P<bad>.)|)"
)
_NUMBER, _IDENT, _SYMBOL = 0, 1, 2
_END = ("", "", "", "")


@lru_cache(maxsize=1024)  # the parser asks once per ident token
def _is_name(word: str) -> bool:
    """Whether `word` reads back as one name: an ident token that starts with
    a letter or "_", not a numeral such as "²", which \\w holds."""
    return bool(_NAME.fullmatch(word)) and (word[0].isalpha() or word[0] == "_")


def _offset(text: str, k: int) -> int:
    """Where token k of `text` starts; the end token sits just past the last
    real token, where the match after that token starts."""
    match = next(islice(_TOKEN.finditer(text), k, None))
    return match.start(match.lastindex or 0)


class _Parser:
    def __init__(self, text: str, mode: NumericMode):
        # (number, ident, symbol, bad) per token; the first all-empty tuple ends them
        tokens = _TOKEN.findall(text)
        for k, (_, ident, _, bad) in enumerate(tokens):
            if bad or ident and not _is_name(ident):
                message = f"unexpected character {(bad or ident)[0]!r}"
                raise _error_at(text, _offset(text, k), message)
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.mode = mode
        # indexed by "the sign was '-'": the unit coefficients, and each number
        # text's value, read once per parse
        self.units = (mode.coerce(1), mode.coerce(-1))
        self.values: tuple[dict[str, Value], dict[str, Value]] = ({}, {})

    def _fail(self, message: str, k: Optional[int] = None) -> ParseError:
        """The error at token `k`, or else at the next token, which it names."""
        if k is None:
            k = self.pos
            word = "".join(self.tokens[k])
            message += f", found {word!r}" if word else " (at end of input)"
        return _error_at(self.text, _offset(self.text, k), message)

    def _expect(self, symbol: str) -> None:
        if self.tokens[self.pos][_SYMBOL] != symbol:
            raise self._fail(f"expected {symbol!r}")
        self.pos += 1

    def _sign(self) -> bool:
        """Take an optional "+" or "-": whether it was "-"."""
        symbol = self.tokens[self.pos][_SYMBOL]
        if symbol != "+" and symbol != "-":
            return False
        self.pos += 1
        return symbol == "-"

    def _number(self, negative: bool) -> Value:
        tokens, k = self.tokens, self.pos
        text = tokens[k][_NUMBER]
        if not text:
            raise self._fail("expected 'number'")
        self.pos = k + 1
        if tokens[k + 1][_SYMBOL] == "/" and tokens[k + 2][_NUMBER]:
            denom = tokens[k + 2][_NUMBER]
            self.pos = k + 3
            if "." in text or "." in denom:
                raise self._fail("quotient parts must be integers", k)
            if denom.strip("0") == "":
                raise self._fail("zero denominator", k + 2)
            text = f"{text}/{denom}"
        values = self.values[negative]
        value = values.get(text)
        if value is None:
            # Python refuses to convert integers of more than 4300 digits,
            # and a float cannot hold a number past about 1.8e308.
            try:
                value = self.mode.coerce(text)
            except (ValueError, OverflowError) as exc:
                raise self._fail(f"cannot read number: {exc}", k) from exc
            values[text] = value = -value if negative else value
        return value

    def _linexpr(self) -> dict[str, Value]:
        tokens, units, zero = self.tokens, self.units, self.mode.zero
        coeffs: dict[str, Value] = {}
        while True:
            negative = self._sign()
            number, name, _, _ = tokens[self.pos]
            if number:
                coeff = self._number(negative)
                if tokens[self.pos][_SYMBOL] == "*":
                    self.pos += 1
                name = tokens[self.pos][_IDENT]
                if not name:
                    raise self._fail("expected 'ident'")
            elif name:
                coeff = units[negative]
            else:
                raise self._fail("expected a term")
            self.pos += 1
            # `or zero` reads float mode's "- 0 x" as 0.0, as zero + -0.0 is
            if name in coeffs:
                coeffs[name] += coeff
            else:
                coeffs[name] = coeff or zero
            if tokens[self.pos][_SYMBOL] not in ("+", "-"):
                return coeffs

    def parse(self) -> GeneralProblem:
        tokens = self.tokens
        if tokens[0] == _END:
            raise ParseError("empty input", 1, 1)
        head = tokens[0][_IDENT]
        if head not in ("max", "min"):
            raise self._fail("expected 'max' or 'min'")
        self.pos = 1
        sense = Sense.MAX if head == "max" else Sense.MIN
        self._expect(":")
        if tokens[self.pos][_SYMBOL] == ";":
            raise self._fail("empty objective")
        objective = self._linexpr()
        self._expect(";")

        # Unnamed rows are named once every row is read: each takes the next
        # "c<k>" that no row names explicitly.
        rows: list[tuple[Optional[str], dict[str, Value], Relation, Value]] = []
        named: set[str] = set()
        while tokens[self.pos] != _END:
            name = tokens[self.pos][_IDENT]
            if name and tokens[self.pos + 1][_SYMBOL] == ":":
                if name in named:
                    raise self._fail(f"constraint name {name!r} is used twice", self.pos)
                named.add(name)
                self.pos += 2
            else:
                name = None
            coeffs = self._linexpr()
            relation = tokens[self.pos][_SYMBOL]
            if relation not in ("<=", ">=", "="):
                raise self._fail("expected '<=', '>=' or '='")
            self.pos += 1
            rhs = self._number(self._sign())
            self._expect(";")
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
    way too, never in exponent form, which the grammar cannot read.  LP
    text cannot hold inf or nan: each is refused by name."""
    try:
        num, den = x.as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"cannot write {x!r} as LP text") from None
    return str(num) if den == 1 else f"{num}/{den}"


def _format_linexpr(coeffs, variables, leads: dict[int, str]) -> str:
    """The terms of `coeffs` in registry order.  `leads` is one `format_lp`
    call's memo, by the id of each value object, of what a term of that
    coefficient writes before its name after another term: the sign, then
    the magnitude unless it is 1 ("- 3/2 ", "+ 4 ", "+ ").  The problem
    keeps every value alive, so no id is reused while the memo lives.  An
    inf or nan coefficient is refused by its magnitude."""
    parts: list[str] = []
    for var in variables:
        if var in coeffs:
            x = coeffs[var]
            k = id(x)
            lead = leads.get(k)
            if lead is None:
                try:
                    num, den = x.as_integer_ratio()
                except (OverflowError, ValueError):
                    raise ValueError(f"cannot write {abs(x)!r} as LP text") from None
                sign = "- " if num < 0 else "+ "
                num = abs(num)  # a unit is 1/1 in lowest terms
                lead = sign if num == den else f"{sign}{num} " if den == 1 else f"{sign}{num}/{den} "
                leads[k] = lead
            parts.append(lead + var)
    if not parts:
        return "0 " + variables[0]
    line = " ".join(parts)  # "+ 3 x ..." opens a line as "3 x ...", "- 3 x" as "-3 x"
    return line[2:] if line[0] == "+" else "-" + line[2:]


def format_lp(gp: GeneralProblem) -> str:
    """Render a problem back to LP text; parsing the output restores it.
    A name or value the grammar cannot read back raises ValueError, and a
    problem without variables or without an objective raises EmptyProblem."""
    if not gp.variables:
        raise EmptyProblem("a problem with no variables has no LP text")
    for name in (*gp.variables, *(con.name for con in gp.constraints)):
        # "2x" would read back as 2 x
        if not _is_name(name):
            raise ValueError(f"cannot write the name {name!r} as LP text")
    if not gp.objective:
        # standardize refuses this problem; "max: 0 x1;" would read back
        # as one it solves
        raise EmptyProblem("no objective")
    variables, objective = gp.variables, gp.objective
    if len(objective) < len(variables):
        # The parser registers variables as they first appear, and each
        # line (an empty one as "0 " and the first) is in registry order.
        # Where that order is not the registry's, the objective names all.
        order: list[str] = []
        for coeffs in (objective, *(con.coeffs for con in gp.constraints)):
            order += sorted(set(coeffs or variables[:1]).difference(order), key=variables.index)
        if order != list(variables):
            objective = {var: objective.get(var, 0) for var in variables}
    # `_value_` holds what the enums' `value` property returns; reading it
    # skips that property's Python-level call, about 7% of writing the
    # oracle sweep's small problems on CPython 3.11.
    leads: dict[int, str] = {}
    lines = [f"{gp.sense._value_}: {_format_linexpr(objective, variables, leads)};"]
    for con in gp.constraints:
        expr = _format_linexpr(con.coeffs, variables, leads)
        lines.append(f"{con.name}: {expr} {con.relation._value_} {_format_value(con.rhs)};")
    return "\n".join(lines) + "\n"
