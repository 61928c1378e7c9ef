"""Exact dictionaries whose rows are held as one int each.

`Dictionary.from_numerators` builds a PackedDictionary for an exact start
of at least `dictionary.PACK_CELLS` cells; the format is fixed when a
start is built, so all that derives from it stays packed.  Only this
module and `dictionary` know the layout: callers read a PackedDictionary
through `column`, `row` and `sum_rows` as they read any Dictionary.  The
README's "Packed rows" gives the layout and the proof of the width.
"""

from __future__ import annotations

from .dictionary import Dictionary

# Spare bits per slot when rows are packed: pivots fill them before the
# rows are re-packed wider.  Measured on the exact ladders, 24 to 96 spare
# bits, or a quarter of the bound, ran within 10% of each other.
GROW = 32


def _slot_width(bound: int, m: int) -> int:
    """Bits per slot for numerators of magnitude at most 2**bound: a sign
    bit, bits(m + 1) of headroom so that a sum of rows still decodes, and
    GROW bits to grow into, in whole bytes."""
    return (bound + (m + 1).bit_length() + 1 + GROW + 7) // 8 * 8


def _bias(width: int, slots: int) -> int:
    """The top bit of every slot: adding it makes every slot nonnegative."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")


class PackedDictionary(Dictionary):
    """An exact Dictionary whose rows are held as one int each.

    Row i is sum_j num[i][j] * 2**(k*j): entry j sits in a signed slot of
    k bits, so a pivot updates a whole row with one multiply, subtract and
    divide on big ints; every slot's quotient is exact, so the packed floor
    division is the slot-by-slot one.  `_bound` is a proved t with every
    numerator and den of magnitude at most 2**t (see `_pivoted`), and k
    keeps the headroom of `_slot_width` over it: a sign bit, bits(m + 1)
    so that a sum of rows still decodes, and GROW bits to grow into.
    `column`, `row` and `sum_rows` decode only what they return; `num`
    decodes the whole grid once, for the negative transpose, `entries` and
    tests.
    """

    __slots__ = ("rows", "_width", "_bias", "_bound", "_num")

    @classmethod
    def _of(cls, basis, nonbasis, num, den, mode, d0, scaled) -> "PackedDictionary":
        """Pack a grid of numerators over den at the width its values need."""
        bound = max(den, *[abs(x) for row in num for x in row]).bit_length()
        width = _slot_width(bound, len(basis))
        bias = _bias(width, len(nonbasis) + 1)
        rows = _encode(num, width, bias)
        return cls._made(basis, nonbasis, rows, den, mode, d0, scaled, width, bias, bound)

    @classmethod
    def _made(cls, basis, nonbasis, rows, den, mode, d0, scaled, width, bias, bound):
        d = object.__new__(cls)
        d._set(basis, nonbasis, den, mode, d0, scaled)
        d.rows = rows
        d._width = width
        d._bias = bias
        d._bound = bound
        d._num = None
        return d

    def _decode(self, row: int) -> tuple[int, ...]:
        half = 1 << (self._width - 1)
        return tuple([u - half for u in _slots(row + self._bias, self._width, self.n + 1)])

    @property
    def num(self) -> tuple[tuple[int, ...], ...]:
        if self._num is None:
            self._num = tuple(map(self._decode, self.rows))
        return self._num

    def row(self, i: int) -> tuple[int, ...]:
        return self._decode(self.rows[i])

    def _column(self, j: int) -> tuple[int, ...]:
        half = 1 << (self._width - 1)
        mask = (half << 1) - 1
        if j == 0:
            return tuple([((x & mask) ^ half) - half for x in self.rows])
        # (x >> (k*j - 1)) + 1 >> 1 is x >> k*j rounded to nearest: it takes
        # back the borrow that negative lower slots leave in slot j.
        shift = self._width * j - 1
        return tuple([(((x >> shift) + 1 >> 1 & mask) ^ half) - half for x in self.rows])

    def sum_rows(self, rows) -> tuple[int, ...]:
        return self._decode(sum([self.rows[i] for i in rows]))

    def _measured_bound(self) -> int:
        """The least t with every numerator in [-2**t, 2**t) and den <= 2**t."""
        width, bias = self._width, self._bias
        low = bias - (bias >> (width - 1))  # every bit of every slot but the top
        seen = 0
        for x in self.rows:
            # Biased, a slot holds 2**(k-1) + x; flipping the low bits of the
            # slots whose top bit is clear turns each into x or ~x.
            u = x + bias
            negative = (u & bias) ^ bias
            seen |= (u ^ (negative - (negative >> (width - 1)))) & low
        top = 0
        for u in _slots(seen, width, self.n + 1):
            top |= u
        return max(top.bit_length(), self.den.bit_length())

    def _pivoted(self, r: int, m: int, basis, nonbasis) -> "PackedDictionary":
        column = self.column(m)
        p = column[r]
        den = self.den
        sn, sd, ps, dv = self._factors(r, m, p)
        # With every |N| and D at most 2**t and A = max_i |N_im|, each new
        # N_ij is (N_ij p - N_im N_rj) sigma / D, of magnitude at most
        # 2**t (|p| + A) |sigma| / D <= 2**(t + bits(|p| + A) + 1 - bits(D)) |sigma|;
        # the pivot row, column m and the new den are at most |sigma| 2**t.
        # |sigma| is 1, 1/D0 or D0 < 2**bits(D0).
        grow = max(0, (abs(p) + max(map(abs, column))).bit_length() + 1 - den.bit_length())
        if abs(sn) > 1:
            grow += self._d0.bit_length()
        width, bias, rows = self._width, self._bias, self.rows
        room = width - (self.m + 1).bit_length() - 1
        bound = self._bound + grow
        if bound > room:
            bound = self._measured_bound() + grow
        if bound > room:
            wider = _slot_width(bound, self.m)
            rows = _respaced(rows, width, bias, wider, self.n + 1)
            width, bias = wider, _bias(wider, self.n + 1)
        # Dictionary._pivoted's update through the lifted pivot row, on whole rows.
        shift = width * m
        lifted = rows[r] + (den << shift)
        new = tuple([
            (lifted - (p << shift)) * sn // sd if i == r else (x * ps - a * sn * lifted) // dv
            for i, (x, a) in enumerate(zip(rows, column))
        ])
        return PackedDictionary._made(
            basis, nonbasis, new, ps // sd, self.mode, self._d0, self._scaled,
            width, bias, bound,
        )

    def drop_column(self, m: int) -> "PackedDictionary":
        nonbasis = self.nonbasis[: m - 1] + self.nonbasis[m:]
        width, bias = self._width, self._bias
        new_bias = _bias(width, self.n)
        low = (1 << width * m) - 1
        rows = []
        for x in self.rows:
            u = x + bias
            rows.append((u & low | u >> width * (m + 1) << width * m) - new_bias)
        return PackedDictionary._made(
            self.basis, nonbasis, tuple(rows), self.den, self.mode, self._d0,
            self._scaled, width, new_bias, self._bound,
        )


def _slots(u: int, width: int, count: int) -> list[int]:
    """The `count` unsigned slots of `width` bits of a nonnegative int."""
    size = width // 8
    data = u.to_bytes(size * count, "little")
    return [int.from_bytes(data[a : a + size], "little") for a in range(0, len(data), size)]


def _respaced(rows, width: int, bias: int, wider: int, slots: int) -> tuple[int, ...]:
    """Rows of `width`-bit slots biased by `bias` as rows of `wider`-bit
    slots, with no slot decoded: the biased grid's bytes are written once,
    each byte lane of the old slots moves into the wider layout with one
    slice assignment, and the old bias, re-spaced, comes off each row."""
    size, new = width // 8, wider // 8
    data = b"".join([(x + bias).to_bytes(size * slots, "little") for x in rows])
    buf = bytearray(new * slots * len(rows))
    for b in range(size):
        buf[b::new] = data[b::size]
    half = int.from_bytes((bytes(size - 1) + b"\x80" + bytes(new - size)) * slots, "little")
    view, span = memoryview(buf), new * slots
    return tuple(
        [int.from_bytes(view[a : a + span], "little") - half for a in range(0, len(buf), span)]
    )


def _encode(num, width: int, bias: int) -> tuple[int, ...]:
    """Rows of numerators as packed ints of `width`-bit slots."""
    size, half = width // 8, 1 << (width - 1)
    return tuple(
        int.from_bytes(b"".join([(x + half).to_bytes(size, "little") for x in row]), "little")
        - bias
        for row in num
    )
