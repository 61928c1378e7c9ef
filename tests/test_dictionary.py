"""Dictionary pivots, feasibility flags, and the negative transpose."""

import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex import dictionary
from afsimplex.dictionary import (
    Dictionary,
    LabelKind,
    artificial,
    ZeroPivot,
    initial_dictionary,
    slack,
    structural,
)
from afsimplex.packed import PackedDictionary
from afsimplex.traditional import artificial_rows

from conftest import problem_from


def reference_pivot(entries, r, m):
    """The textbook dictionary pivot on Fractions, entry by entry:

        d'_rm = 1/p          d'_rj = d_rj / p
        d'_im = -d_im / p    d'_ij = d_ij - d_im * d_rj / p

    kept here as the reference that the integer-preserving pivot must
    reproduce exactly.  Rows past the basis rows are pivoted like any
    other non-pivot row.
    """
    p = entries[r][m]
    rows = []
    for i, row in enumerate(entries):
        if i == r:
            rows.append(tuple(1 / p if j == m else x / p for j, x in enumerate(row)))
        else:
            factor = row[m] / p
            rows.append(
                tuple(
                    -factor if j == m else x - factor * entries[r][j]
                    for j, x in enumerate(row)
                )
            )
    return tuple(rows)


INTEGER_CELLS = st.integers(-6, 6).map(F)
RATIONAL_CELLS = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 6, 50]))


@st.composite
def dictionaries(draw, max_rows=4, max_cols=4, cell=INTEGER_CELLS):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entries = tuple(
        tuple(draw(cell) for _ in range(n + 1)) for _ in range(m + 1)
    )
    return Dictionary(
        basis=tuple(slack(i + 1) for i in range(m)),
        nonbasis=tuple(structural(j + 1) for j in range(n)),
        entries=entries,
    )


@st.composite
def dictionaries_with_pivot(draw):
    d = draw(dictionaries())
    spots = [
        (i, j)
        for i in range(1, d.m + 1)
        for j in range(1, d.n + 1)
        if d.entries[i][j] != 0
    ]
    if not spots:
        # force one usable pivot entry
        row = list(d.entries[1])
        row[1] = F(1)
        entries = (d.entries[0], tuple(row)) + d.entries[2:]
        d = Dictionary(d.basis, d.nonbasis, entries)
        spots = [(1, 1)]
    return d, draw(st.sampled_from(spots))


def test_initial_dictionary_walk(walk_sp):
    d = initial_dictionary(walk_sp)
    assert [d.rhs(i) for i in range(1, 6)] == [F(4), F(-6), F(-18), F(-8), F(-32)]
    assert d.entries[0] == (F(0), F(-3), F(-5))
    assert [l.name for l in d.basis] == ["w1", "w2", "w3", "w4", "w5"]
    assert [l.name for l in d.nonbasis] == ["x1", "x2"]


def test_initial_dictionary_tiny():
    sp = af.standardize(af.parse_lp("max: x1;\nc1: x1 <= 1;\n"))
    d = initial_dictionary(sp)
    assert d.m == d.n == 1
    assert d.rhs(1) == F(1)
    assert d.entries[0] == (F(0), F(-1))


def test_exact_dictionary_refuses_floats():
    # Fraction(0.1) would store the binary fraction 3602879701896397/2**55.
    with pytest.raises(TypeError, match="exact mode"):
        Dictionary((slack(1),), (structural(1),), ((0, 1), (0.1, 1)))
    d = Dictionary((slack(1),), (structural(1),), ((0, 1), ("1/10", 1)))
    assert d.rhs(1) == F(1, 10)


def test_value_accessors_read_rhs(walk_sp):
    d = initial_dictionary(walk_sp)
    assert d.objective_value == F(0)
    assert d.rhs(1) == F(4)
    assert d.corner() == (F(0), F(0))


def test_pivot_rejects_zero_entry(walk_sp):
    d = initial_dictionary(walk_sp)
    # row c2 has no x1 term
    assert d.entry(2, 1) == F(0)
    with pytest.raises(ZeroPivot):
        d.pivot(2, 1)


def test_pivot_out_of_range(walk_sp):
    d = initial_dictionary(walk_sp)
    with pytest.raises(IndexError):
        d.pivot(6, 1)


def test_pivot_swaps_labels(walk_sp):
    d = initial_dictionary(walk_sp).pivot(1, 1)
    assert d.row_label(1) == structural(1)
    assert d.column_label(1) == slack(1)


@given(dictionaries_with_pivot())
def test_pivot_is_an_involution(case):
    d, (r, m) = case
    back = d.pivot(r, m).pivot(r, m)
    assert back.entries == d.entries
    assert back.basis == d.basis
    assert back.nonbasis == d.nonbasis


@given(dictionaries_with_pivot())
@settings(max_examples=60)
def test_pivot_preserves_the_solution_set(case):
    # the pivoted dictionary's basic solution must satisfy every defining
    # equation of the original dictionary, objective row included
    d, (r, m) = case
    after = d.pivot(r, m)
    values = {label: after.rhs(i) for i, label in enumerate(after.basis, start=1)}
    values.update({label: F(0) for label in after.nonbasis})
    z = after.objective_value
    for i in range(1, d.m + 1):
        rhs = d.entries[i][0] - sum(
            d.entries[i][j] * values[d.column_label(j)]
            for j in range(1, d.n + 1)
        )
        assert values[d.row_label(i)] == rhs
    assert z == d.entries[0][0] - sum(
        d.entries[0][j] * values[d.column_label(j)] for j in range(1, d.n + 1)
    )


@given(dictionaries())
def test_negative_transpose_is_an_involution(d):
    assert d.negative_transpose().negative_transpose() == d


@given(dictionaries())
def test_negative_transpose_trades_feasibility_flags(d):
    # den > 0, so the signs of the numerators are the signs of the entries
    def flags(d):
        primal = all(d.num[i][0] >= 0 for i in range(1, d.m + 1))
        dual = all(x >= 0 for x in d.num[0][1:])
        return primal, dual

    primal, dual = flags(d)
    assert flags(d.negative_transpose()) == (dual, primal)


@given(dictionaries_with_pivot())
@settings(max_examples=60)
def test_negative_transpose_commutes_with_pivot(case):
    d, (r, m) = case
    assert d.pivot(r, m).negative_transpose() == d.negative_transpose().pivot(m, r)


def test_drop_column():
    d = Dictionary(
        basis=(slack(1),),
        nonbasis=(structural(1), structural(2)),
        entries=((F(0), F(1), F(2)), (F(3), F(4), F(5))),
    )
    dropped = d.drop_column(1)
    assert dropped.nonbasis == (structural(2),)
    assert dropped.entries == ((F(0), F(2)), (F(3), F(5)))


def test_signature_ignores_row_order():
    a = Dictionary(
        basis=(slack(2), slack(1)),
        nonbasis=(structural(1),),
        entries=((F(0), F(1)), (F(1), F(1)), (F(2), F(1))),
    )
    b = Dictionary(
        basis=(slack(1), slack(2)),
        nonbasis=(structural(1),),
        entries=((F(0), F(1)), (F(2), F(1)), (F(1), F(1))),
    )
    assert a.signature() == b.signature()


def _assert_well_formed(d):
    assert d.den > 0
    assert all(type(x) is int for row in d.num for x in row)
    assert all(type(x) is F for row in d.entries for x in row)


@given(dictionaries(cell=RATIONAL_CELLS), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_pivot_walk_matches_the_fraction_formula(d, data):
    # Each step either pivots back on the previous spot (a scaled label
    # enters where an unscaled one leaves, sigma = 1/D0) or on a fresh
    # nonzero spot; the first step from the built basis has sigma = D0
    # whenever D0 > 1.  A row summed from the starting rows rides along as
    # grid row m + 1.
    chosen = data.draw(st.sets(st.integers(0, d.m), min_size=1))
    extra = tuple(sum(col) for col in zip(*(d.num[i] for i in sorted(chosen))))
    reference = d.entries + (tuple(sum(col) for col in zip(*(d.entries[i] for i in sorted(chosen)))),)
    d = Dictionary.from_numerators(d.basis, d.nonbasis, d.num + (extra,), d.den, d.mode)
    last = None
    for _ in range(data.draw(st.integers(1, 6))):
        spots = [
            (i, j)
            for i in range(1, d.m + 1)
            for j in range(1, d.n + 1)
            if reference[i][j] != 0
        ]
        if not spots:
            break
        if last is not None and data.draw(st.booleans()):
            r, m = last
        else:
            r, m = data.draw(st.sampled_from(spots))
        d = d.pivot(r, m)
        reference = reference_pivot(reference, r, m)
        _assert_well_formed(d)
        assert d.entries[:-1] == reference[:-1]
        assert tuple(map(d.value, d.row(d.m + 1))) == reference[-1]
        last = (r, m)


def reference_negative_transpose(entries):
    """d*_ji = -d_ij with the border rows swapped, on the values."""
    top, rows = entries[0], entries[1:]
    out = [(-top[0],) + tuple(row[0] for row in rows)]
    for j in range(1, len(top)):
        out.append((top[j],) + tuple(-row[j] for row in rows))
    return tuple(out)


@given(dictionaries(cell=RATIONAL_CELLS), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_negative_transpose_pivots_in_lockstep(d, data):
    # The transpose keeps den and D0 and trades the scaled and unscaled
    # labels, so pivoting (m, r) on it takes the sigma of (r, m) here.
    # As in the walk above, a step may pivot straight back.
    t = d.negative_transpose()
    reference = d.entries
    reference_t = reference_negative_transpose(reference)
    _assert_well_formed(t)
    assert t.entries == reference_t
    last = None
    for _ in range(data.draw(st.integers(1, 6))):
        spots = [
            (i, j)
            for i in range(1, d.m + 1)
            for j in range(1, d.n + 1)
            if reference[i][j] != 0
        ]
        if not spots:
            break
        if last is not None and data.draw(st.booleans()):
            r, m = last
        else:
            r, m = data.draw(st.sampled_from(spots))
        d, t = d.pivot(r, m), t.pivot(m, r)
        reference = reference_pivot(reference, r, m)
        reference_t = reference_pivot(reference_t, m, r)
        for side in (d, t):
            _assert_well_formed(side)
        assert d.entries == reference
        assert t.entries == reference_t
        assert t.negative_transpose() == d
        assert d.negative_transpose() == t
        last = (r, m)


def test_sigma_steps_on_the_cycler_rows(cycler_sp):
    # D0 = 100 here.  Pivoting a built-basic slack out for a structural
    # column scales by D0; pivoting straight back scales by 1/D0 and
    # restores the starting numerators.
    d = initial_dictionary(cycler_sp)
    assert d.den == 100
    start = d.num
    reference = d.entries
    for r, m in ((1, 1), (1, 1), (2, 3), (1, 2), (1, 2), (2, 3)):
        d = d.pivot(r, m)
        reference = reference_pivot(reference, r, m)
        _assert_well_formed(d)
        assert d.entries == reference
    assert d.num == start and d.den == 100


@dataclass(frozen=True, order=True)
class ReferenceLabel:
    """Identity of a variable; ordering is structural < slack < artificial,
    then by index, which gives the label-id order used by tie-breaks."""

    kind: LabelKind
    index: int

    @property
    def name(self) -> str:
        prefix = {
            LabelKind.STRUCTURAL: "x",
            LabelKind.SLACK: "w",
            LabelKind.ARTIFICIAL: "a",
        }[self.kind]
        return f"{prefix}{self.index}"

    def __repr__(self) -> str:  # keeps test output readable
        return self.name


def test_label_keeps_the_dataclass_order_hash_equality_and_names():
    made = [make(i) for make in (structural, slack, artificial) for i in (1, 2, 9, 10, 11)]
    labels = made * 2
    random.Random(5).shuffle(labels)
    reference = [ReferenceLabel(label.kind, label.index) for label in labels]
    assert [(l.kind, l.index) for l in sorted(labels)] == [
        (l.kind, l.index) for l in sorted(reference)
    ]
    for label, ref in zip(labels, reference):
        assert hash(label) == hash(ref)
        assert label.name == ref.name and repr(label) == repr(ref)
        assert label.kind is ref.kind
        for other, other_ref in zip(labels, reference):
            assert (label == other) == (ref == other_ref)
            assert (label < other) == (ref < other_ref)
    assert len(set(labels)) == len(made)
    assert repr(tuple(made[:2])) == "(x1, x2)"
    # As a tuple, a label now also equals its plain (kind, index) pair.
    assert slack(3) == (LabelKind.SLACK, 3) == (1, 3)


def _unpacked(monkeypatch, build, *args):
    """`build(*args)` with packing off, so that any start it builds has
    tuple rows, and so does every dictionary derived from it."""
    with monkeypatch.context() as patch:
        patch.setattr(dictionary, "PACK_CELLS", float("inf"))
        return build(*args)


def _twins(entries, monkeypatch):
    """The same grid as a PackedDictionary and as a tuple-row Dictionary."""
    m, n = len(entries) - 1, len(entries[0]) - 1
    basis = tuple(slack(i + 1) for i in range(m))
    nonbasis = tuple(structural(j + 1) for j in range(n))
    packed = Dictionary(basis, nonbasis, entries)
    plain = _unpacked(monkeypatch, Dictionary, basis, nonbasis, entries)
    assert type(packed) is PackedDictionary and type(plain) is Dictionary
    return packed, plain


def _with_row(d, row):
    """`d` with `row` appended past row m; row format, den, D0 and label
    scales kept."""
    return d._of(d.basis, d.nonbasis, d.num + (row,), d.den, d.mode, d._d0, d._scaled)


def _assert_same_numerators(packed, plain, rng):
    """Every read of `packed` equals the same read of the tuple-row `plain`,
    and each of those equals what `plain.num` holds."""
    assert packed.den == plain.den
    # Reads first: decoding `num` would not read the packed rows.  `plain`
    # compared with its own `num` shows that no column it keeps came over
    # from the dictionary it was pivoted, dropped or transposed from.
    for j in (*rng.sample(range(packed.n + 1), packed.n + 1), 0):
        assert packed.column(j) == plain.column(j) == tuple(row[j] for row in plain.num)
    for i in range(len(plain.num)):  # rows past m too
        assert packed.row(i) == plain.row(i) == plain.num[i]
        assert packed.rhs(i) == plain.rhs(i)
        j = rng.randint(0, packed.n)
        assert packed.entry(i, j) == plain.entry(i, j)
    for size in (0, rng.randint(1, packed.m + 1)):
        rows = rng.sample(range(packed.m + 1), size)
        assert packed.sum_rows(rows) == plain.sum_rows(rows)
    assert packed.objective_value == plain.objective_value
    # corner() reads the structural labels as x1..xp, which a dropped
    # structural column breaks.
    labels = packed.basis + packed.nonbasis
    p = sum(label.kind is LabelKind.STRUCTURAL for label in labels)
    if all(structural(j) in labels for j in range(1, p + 1)):
        assert packed.corner() == plain.corner()
    assert packed.num == plain.num
    assert max(packed.den, *[abs(x) for row in packed.num for x in row]) <= 2**packed._bound


@pytest.mark.parametrize("seed", range(8))
def test_packed_rows_match_tuple_rows_through_a_pivot_walk(seed, monkeypatch):
    # 17 x 17 grids, integer on even seeds and rational (D0 > 1) on odd
    # ones; pivots anywhere nonzero, negative ones included, and straight
    # back (sigma = 1/D0), with columns dropped and the dictionary
    # transposed on the way.  Entries grow until the slots are widened.  Row
    # 0 as it was at the start or at the last transpose rides along as grid
    # row m + 1.
    rng = random.Random(seed)
    dens = (1,) if seed % 2 == 0 else (1, 2, 3, 5, 7)
    entries = tuple(
        tuple(F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(17)) for _ in range(17)
    )
    packed, plain = _twins(entries, monkeypatch)
    if seed % 2:
        assert packed.den > 1
    row = plain.num[0]
    packed, plain = _with_row(packed, row), _with_row(plain, row)
    start_width = packed._width
    last = None
    for step in range(40):
        # every step keeps each twin's format, so that the tuple-row update
        # is checked against the packed one all along the walk
        assert type(packed) is PackedDictionary and type(plain) is Dictionary
        _assert_same_numerators(packed, plain, rng)
        if step % 13 == 12 and plain.n > 2:
            j = rng.randint(1, plain.n)
            packed, plain = packed.drop_column(j), plain.drop_column(j)
            last = None
            continue
        if step % 17 == 16:
            packed, plain = packed.negative_transpose(), plain.negative_transpose()
            assert type(packed) is PackedDictionary and type(plain) is Dictionary
            row = plain.num[0]
            packed, plain = _with_row(packed, row), _with_row(plain, row)
            last = None
            continue
        spots = [
            (i, j)
            for i in range(1, plain.m + 1)
            for j in range(1, plain.n + 1)
            if plain.num[i][j] != 0
        ]
        r, m = last if last is not None and rng.random() < 0.2 else rng.choice(spots)
        packed, plain = packed.pivot(r, m), plain.pivot(r, m)
        assert packed.row(plain.m + 1) == plain.row(plain.m + 1)
        last = (r, m)
    assert type(packed) is PackedDictionary and type(plain) is Dictionary
    _assert_same_numerators(packed, plain, rng)
    assert packed._width > start_width


def test_measured_bound_refuses_a_slot_at_two_to_the_t():
    # A slot holds x in [-2**t, 2**t) for bound t: 2**t needs t + 1.
    t = 40
    for x, bound in ((2**t, t + 1), (2**t - 1, t), (-(2**t), t), (-(2**t) - 1, t + 1)):
        entries = [[F(1)] * 17 for _ in range(17)]
        entries[5][9] = F(x)
        d = Dictionary(
            tuple(slack(i + 1) for i in range(16)),
            tuple(structural(j + 1) for j in range(16)),
            entries,
        )
        assert isinstance(d, PackedDictionary)
        assert d._measured_bound() == bound


def test_only_large_exact_grids_are_packed():
    def grid(size, mode=af.EXACT):
        labels = tuple(slack(i + 1) for i in range(size - 1))
        cols = tuple(structural(j + 1) for j in range(size - 1))
        return Dictionary(labels, cols, [[F(1)] * size] * size, mode)

    assert dictionary.PACK_CELLS == 16 * 16
    assert type(grid(15)) is Dictionary
    assert type(grid(16)) is PackedDictionary
    assert type(grid(16, af.FloatMode(1e-9))) is Dictionary

    def cells(d):
        # Every row of the grid, rows past m included.
        return len(d.column(0)) * len(d.row(0))

    # The format is chosen by the start's cell count, its riding row
    # counted, and every pivot, dropped column and negative transpose keeps
    # it whatever its size: 15 x 16 + a riding row is 256 cells, packed, and
    # its transpose, which takes no row past m, stays packed at 16 x 15.
    for rows, cols in ((15, 16), (14, 17), (16, 16), (15, 17)):
        d = Dictionary.from_numerators(
            tuple(slack(i + 1) for i in range(rows - 1)),
            tuple(structural(j + 1) for j in range(cols - 1)),
            ((1,) * cols,) * (rows + 1), 1, af.EXACT,
        )
        assert cells(d) == (rows + 1) * cols
        assert (type(d) is PackedDictionary) is (cells(d) >= dictionary.PACK_CELLS)
        transposed = d.negative_transpose()
        assert cells(transposed) == cols * rows
        back = transposed.pivot(1, 1).drop_column(1).negative_transpose()
        for derived in (d.pivot(1, 1), d.drop_column(1), transposed, back):
            assert type(derived) is type(d)
    # Phase 1 returns the grid it pivoted, in the auxiliary start's format:
    # (m + 2) x (p + k + 1) cells with k = 1, one column fewer once the
    # artificial is retired, and the auxiliary row still riding as row
    # m + 1.  That row is minus the artificial rows' sum: zero when none is
    # basic, and the stuck artificial's row negated when the last bound
    # row is made to contradict row c0.
    for m, p, aux_cells, feasible_cells in (
        (14, 14, 256, 240), (13, 15, 255, 240), (15, 15, 289, 272), (14, 16, 288, 272),
    ):
        total = " + ".join(f"x{j}" for j in range(1, p + 1))
        bounds = [f"c{i}: x{i} <= 5;\n" for i in range(1, m)]
        for last, want, done_cells in (
            (bounds[-1], af.Status.FEASIBLE, feasible_cells),
            (f"c{m - 1}: {total} <= 0;\n", af.Status.INFEASIBLE, aux_cells),
        ):
            text = f"max: {total};\nc0: {total} >= 1;\n" + "".join(bounds[:-1]) + last
            aux = af.build_auxiliary(problem_from(text))
            assert cells(aux) == aux_cells
            assert (type(aux) is PackedDictionary) is (aux_cells >= dictionary.PACK_CELLS)
            d, status, _ = af.run_traditional_phase1(aux)
            assert status is want
            assert type(d) is type(aux)
            assert cells(d) == done_cells
            rows = artificial_rows(d)
            assert bool(rows) is (status is af.Status.INFEASIBLE)
            assert d.row(d.m + 1) == tuple(-x for x in d.sum_rows(rows))
