"""Simplex dictionaries: an (m+1) x (n+1) array of entries plus the basis
bookkeeping, with the pivot transform that re-expresses it.

Row 0 holds the objective (entry [0][0] is the current objective value),
column 0 holds the right-hand sides, and public indices are 1-based so
that code reads like the algebra: entry(i, j) is d_ij.  A dictionary is
read as

    basic_i = d_i0 - sum_j d_ij * nonbasic_j
    z       = d_00 - sum_j d_0j * nonbasic_j

so an objective-row entry is the negated reduced cost of its column.

Entries are stored as numerators over one common denominator `den` > 0,
so d_ij = N_ij / den.  In exact mode the numerators are integers and a
pivot is the integer-preserving step of Edmonds (1967) and Bareiss
(1968): every division in it is exact and no gcd is ever taken.  In float
mode the numerators are the float entries themselves and den is 1.
Because den is positive, sign tests and comparisons within one dictionary
read the numerators directly; `entries`, `entry`, `rhs`,
`objective_value` and `corner` build the values.

Rows past m, which no basis label names, ride along: a pivot or dropped
column updates them like the others (the traditional method keeps its
auxiliary objective there, and hands it on to phase 2, which never reads
it), and the negative transpose takes none of them.

Steps read the numerators through three methods: `column(j)`, which
keeps every column it decodes in one cache per dictionary (a pivot,
dropped column or negative transpose starts it empty), `row(i)` and
`sum_rows(rows)`.  How a row is stored is known only here and in
`packed`: smaller grids and float mode keep a tuple per row in `num`, and
an exact grid of at least PACK_CELLS cells is a `packed.PackedDictionary`,
whose row i is the one int sum_j N_ij * 2**(k*j), so that a pivot updates
a row with one big-int multiply, subtract and divide instead of a loop
over its entries (see that class and the README's "Packed rows").  The
format is fixed when a start is built, by `from_numerators`; every pivot,
dropped column and negative transpose of that start keeps its class and
builds through the class's `_of`.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from operator import countOf, itemgetter
from typing import NamedTuple

from .model import StandardProblem, numerators
from .numeric import EXACT, ExactMode, NumericMode, Value

# Exact grids of at least this many cells, (m + 1) * (n + 1), hold each row
# as one int (packed.PackedDictionary).  Solving generate_lp(seed, n, n) of
# every shape both ways (best of 5, median of seeds 1-3), packed rows took
# 1.19x the time of tuple rows at 36 cells, 1.09x at 81, 0.97x at 144, 0.80x
# at 256, 0.75x at 324 and 0.70x at 441.  No benchmark grid lies between the
# oracle sweep's (8 x 13 at most) and the exact ladders' (21 x 21 and up), so
# none can show a lower value helping; packing every grid slowed the sweep
# by 12-14%.
PACK_CELLS = 256


class ZeroPivot(ValueError):
    """Pivot requested on an entry classified as zero."""


class LabelKind(IntEnum):
    STRUCTURAL = 0
    SLACK = 1
    ARTIFICIAL = 2


_PREFIX = {LabelKind.STRUCTURAL: "x", LabelKind.SLACK: "w", LabelKind.ARTIFICIAL: "a"}


class Label(NamedTuple):
    """Identity of a variable; ordering is structural < slack < artificial,
    then by index, which gives the label-id order used by tie-breaks.  As
    a tuple it orders, hashes and compares in C, and it equals the plain
    tuple (kind, index)."""

    kind: LabelKind
    index: int

    @property
    def name(self) -> str:
        return f"{_PREFIX[self.kind]}{self.index}"

    def __repr__(self) -> str:  # keeps test output readable
        return self.name


def structural(index: int) -> Label:
    return Label(LabelKind.STRUCTURAL, index)


def slack(index: int) -> Label:
    return Label(LabelKind.SLACK, index)


def artificial(index: int) -> Label:
    return Label(LabelKind.ARTIFICIAL, index)


class Dictionary:
    """An immutable simplex dictionary; see the module docstring.

    `Dictionary(basis, nonbasis, entries, mode)` takes the entry grid as
    values and converts it with `model.numerators`, the conversion that
    builds a problem's `StandardProblem.grid`; `from_numerators` takes
    numerators as they are.  In exact mode den starts as D0, the least
    common multiple of the entries' denominators.  Every label keeps a
    scale for the dictionary's lifetime: D0 if it was basic when the
    dictionary was built, 1 otherwise (the negative transpose trades the
    two).  A pivot multiplies all numerators and den by sigma =
    scale(leaving) / scale(entering), which keeps every division exact on
    rational input; on integer input D0 = 1 and sigma is always 1.
    """

    __slots__ = (
        "basis", "nonbasis", "num", "den", "mode", "m", "n", "_exact", "_d0", "_scaled",
        "_cols",
    )

    def __new__(
        cls,
        basis: tuple[Label, ...],
        nonbasis: tuple[Label, ...],
        entries: tuple[tuple[Value, ...], ...],
        mode: NumericMode = EXACT,
    ):
        basis, nonbasis = tuple(basis), tuple(nonbasis)
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != len(basis) + 1:
            raise ValueError("entry grid must have m+1 rows")
        for row in rows:
            if len(row) != len(nonbasis) + 1:
                raise ValueError("entry grid must have n+1 columns")
        if set(basis) & set(nonbasis):
            raise ValueError("a label cannot be basic and nonbasic at once")
        num, den = numerators(rows, mode)
        return Dictionary.from_numerators(basis, nonbasis, num, den, mode)

    @classmethod
    def from_numerators(cls, basis, nonbasis, num, den, mode: NumericMode) -> "Dictionary":
        """The dictionary whose entries are num[i][j] / den, den being its
        D0 (1 in float mode), as the constructor would build it from those
        values; the shape is the caller's to keep, and rows past m ride
        along.  It fixes the start's row format: an exact grid of at least
        PACK_CELLS cells, rows past m counted, is packed, any other not."""
        of = Dictionary._of
        if isinstance(mode, ExactMode) and len(num) * len(num[0]) >= PACK_CELLS:
            # Imported here, so that a run that never packs never compiles it.
            from .packed import PackedDictionary

            of = PackedDictionary._of
        return of(basis, nonbasis, num, den, mode, den, frozenset(basis))

    @classmethod
    def _of(cls, basis, nonbasis, num, den, mode, d0, scaled) -> "Dictionary":
        """A new grid of numerators over den, a tuple per row."""
        d = object.__new__(cls)
        d._set(basis, nonbasis, den, mode, d0, scaled)
        d.num = num
        return d

    def _set(self, basis, nonbasis, den, mode, d0, scaled) -> None:
        """Every field but the numerators."""
        self.basis = basis
        self.nonbasis = nonbasis
        self.den = den
        self.mode = mode
        self.m = len(basis)
        self.n = len(nonbasis)
        self._exact = isinstance(mode, ExactMode)
        self._d0 = d0
        self._scaled = scaled
        self._cols = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dictionary):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.nonbasis == other.nonbasis
            and self.mode == other.mode
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"Dictionary(basis={self.basis!r}, nonbasis={self.nonbasis!r}, "
            f"entries={self.entries!r}, mode={self.mode!r})"
        )

    def value(self, x) -> Value:
        """The value a numerator of this dictionary stands for: x / den."""
        return Fraction(x, self.den) if self._exact else x

    @property
    def entries(self) -> tuple[tuple[Value, ...], ...]:
        if not self._exact:
            return self.num
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def entry(self, i: int, j: int) -> Value:
        return self.value(self.row(i)[j])

    def row(self, i: int) -> tuple:
        """Numerators of row i."""
        return self.num[i]

    def column(self, j: int) -> tuple:
        """Numerators of column j, every row (rows past m too), kept in
        the dictionary's one column cache: each is decoded at most once."""
        cols = self._cols
        if j not in cols:
            cols[j] = self._column(j)
        return cols[j]

    def _column(self, j: int) -> tuple:
        return tuple(map(itemgetter(j), self.num))

    def sum_rows(self, rows) -> tuple:
        """Numerators of the sum of the given rows, column 0 included
        (zeros when there are none).  The rows are added one after another
        in the order given, so a float sum is reproducible; af gives the
        order of `infeasible_rows`' frozenset, which is not ascending."""
        total = [0] * (self.n + 1)
        for i in rows:
            total = [x + y for x, y in zip(total, self.num[i])]
        return tuple(total)

    def rhs(self, i: int) -> Value:
        return self.value(self.column(0)[i])

    @property
    def objective_value(self) -> Value:
        return self.value(self.column(0)[0])

    def row_label(self, i: int) -> Label:
        return self.basis[i - 1]

    def column_label(self, j: int) -> Label:
        return self.nonbasis[j - 1]

    def signature(self) -> tuple[Label, ...]:
        """Sorted basis labels; the identity of the basis."""
        return tuple(sorted(self.basis))

    def pivot(self, r: int, m: int) -> "Dictionary":
        """Exchange basis row r with nonbasis column m.

        The values follow the standard dictionary pivot: with p = d_rm,

            d'_rm = 1/p          d'_rj = d_rj / p
            d'_im = -d_im / p    d'_ij = d_ij - d_im * d_rj / p

        for i != r (the objective row included) and j != m, applied to
        column 0 and row 0 alike.  Returns a new dictionary; raises
        ZeroPivot when d_rm classifies as zero.
        """
        if not (1 <= r <= self.m and 1 <= m <= self.n):
            raise IndexError(f"pivot ({r}, {m}) outside dictionary")
        if self.mode.sign(self.column(m)[r]) == 0:
            raise ZeroPivot(f"entry ({r}, {m}) = {self.entry(r, m)!r} classifies as zero")
        basis = list(self.basis)
        nonbasis = list(self.nonbasis)
        basis[r - 1], nonbasis[m - 1] = nonbasis[m - 1], basis[r - 1]
        return self._pivoted(r, m, tuple(basis), tuple(nonbasis))

    def _pivoted(self, r: int, m: int, basis, nonbasis) -> "Dictionary":
        prow = self.num[r]
        p = prow[m]
        num = []
        if self._exact:
            # With sigma = sn / sd:  N'_ij = (N_ij * p - N_im * N_rj) * sigma / D,
            # N'_rj = sigma * N_rj, N'_im = -sigma * N_im, N'_rm = sigma * D and
            # D' = sigma * p.  Lifted to p + D in slot m, the pivot row gives
            # every other row's slot m, -sigma * N_im, by the first formula.
            sn, sd, ps, dv = self._factors(r, m, p)
            head, tail = prow[:m], prow[m + 1 :]
            lifted = (*head, p + self.den, *tail)
            for i, row in enumerate(self.num):
                if i == r:
                    new = [y * sn // sd for y in (*head, self.den, *tail)]
                else:
                    asn = row[m] * sn
                    new = [(x * ps - asn * y) // dv for x, y in zip(row, lifted)]
                num.append(tuple(new))
            den = ps // sd
        else:
            for i, row in enumerate(self.num):
                if i == r:
                    new = [y / p for y in prow]
                    new[m] = 1 / p
                else:
                    f = row[m] / p
                    new = [x - f * y for x, y in zip(row, prow)]
                    new[m] = -f
                num.append(tuple(new))
            den = 1
        return self._of(basis, nonbasis, tuple(num), den, self.mode, self._d0, self._scaled)

    def _factors(self, r: int, m: int, p: int) -> tuple[int, int, int, int]:
        """(sn, sd, p * sn, den * sd) for the exact pivot on (r, m) of
        numerator p, with sigma = sn / sd = scale(leaving) / scale(entering).
        A negative p flips the sign of sigma, so that D' stays positive;
        that negates every row, which leaves the values."""
        sn, sd, d0 = 1, 1, self._d0
        leaving = self.basis[r - 1] in self._scaled
        if leaving is not (self.nonbasis[m - 1] in self._scaled):
            sn, sd = (d0, 1) if leaving else (1, d0)
        if p < 0:
            sn = -sn
        return sn, sd, p * sn, self.den * sd

    def drop_column(self, m: int) -> "Dictionary":
        """Remove nonbasis position m (used to retire artificial columns)."""
        nonbasis = self.nonbasis[: m - 1] + self.nonbasis[m:]
        num = tuple(row[:m] + row[m + 1 :] for row in self.num)
        return self._of(self.basis, nonbasis, num, self.den, self.mode, self._d0, self._scaled)

    def structural_column(self, j: int, negate: bool = False) -> list:
        """The values of column j, negated with `negate`, at the basic
        structural variables, as a list by structural index (the structural
        labels are x1..xp) with zeros at the nonbasic ones."""
        kind = LabelKind.STRUCTURAL
        p = countOf(map(itemgetter(0), self.basis), kind)
        p += countOf(map(itemgetter(0), self.nonbasis), kind)
        values = [self.mode.zero] * p
        col, den, exact = self.column(j), self.den, self._exact
        for i, label in enumerate(self.basis, 1):
            if label.kind is kind:
                x = -col[i] if negate else col[i]
                values[label.index - 1] = Fraction(x, den) if exact else x
        return values

    def corner(self) -> tuple[Value, ...]:
        """Structural-variable values at the current basic solution."""
        return tuple(self.structural_column(0))

    def negative_transpose(self) -> "Dictionary":
        """The dual dictionary D*: d*_ji = -d_ij with border rows swapped.

        Rows of D* are indexed by this dictionary's nonbasis labels and
        columns by its basis labels; primal and dual feasibility trade
        places, and the map is an involution.  D* keeps den and D0, and
        its scaled labels are the ones unscaled here, so every pivot on D*
        has the sigma of its mirror pivot here.  It takes no row past m.
        """
        cols = list(zip(*self.num[: self.m + 1]))
        num = [(-cols[0][0],) + cols[0][1:]]
        num += [(col[0],) + tuple([-x for x in col[1:]]) for col in cols[1:]]
        scaled = frozenset(self.basis + self.nonbasis) - self._scaled
        return self._of(self.nonbasis, self.basis, tuple(num), self.den, self.mode, self._d0,
                        scaled)


def initial_dictionary(sp: StandardProblem) -> Dictionary:
    """Slack-basic starting dictionary: w_i = b_i - A_i . x, z = c . x,
    read from the problem's cached numerators `sp.grid`."""
    num, den = sp.grid
    basis = tuple(slack(i + 1) for i in range(sp.m))
    nonbasis = tuple(structural(j + 1) for j in range(sp.p))
    return Dictionary.from_numerators(basis, nonbasis, num, den, sp.mode)
