"""Artificial-variable phase 1: auxiliary build, goldens, the exit trick."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.dictionary import (
    Dictionary,
    Label,
    LabelKind,
    artificial,
    initial_dictionary,
    slack,
    structural,
)
from afsimplex.model import Constraint, GeneralProblem, Relation, Sense, StandardProblem
from afsimplex.numeric import EXACT, ExactMode, FloatMode, Value
from afsimplex.packed import PackedDictionary
from afsimplex.traditional import (
    AuxiliaryDictionary,
    artificial_rows,
    build_auxiliary,
    conjugate_column,
    traditional_step,
)
from afsimplex.trace import SolveConfig, Status, TieBreak

from conftest import fractions_built_during, ladder_text, problem_from
from test_acceptance import _sweep_instances
from test_dictionary import reference_pivot


def recomputed_phase1_row(d: Dictionary):
    """Re-derive the artificial objective row from the artificial rows."""
    rows = [
        i
        for i in range(1, d.m + 1)
        if d.row_label(i).kind is LabelKind.ARTIFICIAL
    ]
    value = -sum((d.rhs(i) for i in rows), d.mode.zero)
    entries = [
        -sum((d.entry(i, j) for i in rows), d.mode.zero)
        for j in range(1, d.n + 1)
    ]
    return tuple([value] + entries)


def test_build_auxiliary_walk(walk_sp):
    d = build_auxiliary(walk_sp)
    # artificials only where the right-hand side was negative
    assert [l.name for l in d.basis] == ["w1", "a2", "a3", "a4", "a5"]
    assert [l.name for l in d.nonbasis] == ["x1", "x2", "w2", "w3", "w4", "w5"]
    assert [d.rhs(i) for i in range(1, 6)] == [F(4), F(6), F(18), F(8), F(32)]
    assert traditional_step(d).infeasibility == F(64)
    assert tuple(map(d.value, d.row(d.m + 1))) == (
        F(-64), F(-9), F(-8), F(1), F(1), F(1), F(1)
    )
    # the real objective row rides along unchanged
    assert d.entries[0][:3] == (F(0), F(-3), F(-5))


def test_build_auxiliary_feasible_problem_has_no_artificials():
    sp = problem_from("max: x1;\nc1: x1 <= 3;\n")
    d = build_auxiliary(sp)
    assert all(l.kind is not LabelKind.ARTIFICIAL for l in d.basis)
    assert traditional_step(d).infeasibility == F(0)
    decision = traditional_step(d, use_trick=False, tie_break=TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.FEASIBLE


def test_walk_golden_trace(walk_sp):
    aux = build_auxiliary(walk_sp)
    d, status, trace = af.run_traditional_phase1(aux, SolveConfig())
    assert status is Status.FEASIBLE
    assert trace.pivots == 5
    assert trace.degenerate_pivots == 2
    assert [r.degenerate for r in trace.records] == [
        False,
        False,
        True,
        False,
        True,
    ]
    # stalls strike after reaching (4,3) and again after (2,6)
    assert trace.deduplicated_corners() == (
        (F(0), F(0)),
        (F(4), F(0)),
        (F(4), F(3)),
        (F(2), F(6)),
    )
    assert all(l.kind is not LabelKind.ARTIFICIAL for l in d.basis)
    assert trace.records[-1].infeasibility_after == F(0)


def _assert_row_is_minus_the_artificial_sum(d: Dictionary) -> None:
    assert d.row(d.m + 1) == tuple(-x for x in d.sum_rows(artificial_rows(d)))


def test_phase1_row_recomputes_after_every_pivot(walk_sp):
    d = build_auxiliary(walk_sp)
    while True:
        assert tuple(map(d.value, d.row(d.m + 1))) == recomputed_phase1_row(d)
        _assert_row_is_minus_the_artificial_sum(d)
        decision = traditional_step(
            d, use_trick=False, tie_break=TieBreak.SMALLEST_LABEL
        )
        if decision.status is not None:
            break
        d = AuxiliaryDictionary(d).pivot(decision.leaving_row, decision.entering_column)
    assert decision.status is Status.FEASIBLE
    # Exact mode, with and without the shortcut: row m + 1, updated by the
    # rule that updates every row, is minus the sum of the artificial rows
    # at every state of the acceptance sweep's problems (tuple rows) and
    # of the three 20 x 20 ladders (packed rows).
    problems = [
        af.standardize(af.generate_lp(seed=seed, rows=rows, cols=cols, shape=shape))
        for seed, rows, cols, shape in _sweep_instances()
    ]
    ladders = [problem_from(ladder_text(20, shape)) for shape in af.Shape]
    assert all(isinstance(build_auxiliary(sp), PackedDictionary) for sp in ladders)
    states = 0
    for sp in problems + ladders:
        for use_trick in (False, True):
            d = build_auxiliary(sp)
            while True:
                _assert_row_is_minus_the_artificial_sum(d)
                states += 1
                decision = traditional_step(d, use_trick=use_trick)
                if decision.status is not None:
                    break
                r, m = decision.leaving_row, decision.entering_column
                aux = AuxiliaryDictionary(d)
                d = aux.conjugate_pivot(r, m) if decision.via_conjugate else aux.pivot(r, m)
    assert states > 2 * (len(problems) + len(ladders))


def test_conjugate_slack_column_structure(walk_sp):
    # while an artificial is basic, its partner slack column holds exactly
    # -1 in that row and 0 everywhere else, the objective rows included
    d = build_auxiliary(walk_sp)
    while True:
        for i in artificial_rows(d):
            col = conjugate_column(d, i)
            assert col is not None
            assert d.entry(i, col) == F(-1)
            assert d.value(d.row(d.m + 1)[col]) == F(1)
            for k in range(d.m + 1):
                if k != i:
                    assert d.entry(k, col) == F(0)
        decision = traditional_step(
            d, use_trick=False, tie_break=TieBreak.SMALLEST_LABEL
        )
        if decision.status is not None:
            break
        d = AuxiliaryDictionary(d).pivot(decision.leaving_row, decision.entering_column)


def test_trick_fires_and_matches_the_full_pivot():
    # x1 >= 2 and x1 <= 2 force a ratio tie whose resolution leaves the
    # artificial basic at value zero, which is the trick's cue
    sp = problem_from("max: x1;\nc1: x1 >= 2;\nc2: x1 <= 2;\n")
    d = build_auxiliary(sp)
    fired = False
    while True:
        decision = traditional_step(
            d, use_trick=True, tie_break=TieBreak.SMALLEST_LABEL
        )
        if decision.status is not None:
            break
        if decision.via_conjugate:
            fired = True
            assert decision.ratio == F(0)
            aux = AuxiliaryDictionary(d)
            full = aux.pivot(decision.leaving_row, decision.entering_column)
            quick = aux.conjugate_pivot(decision.leaving_row, decision.entering_column)
            assert quick == full
            assert tuple(map(quick.value, quick.row(quick.m + 1))) == tuple(
                map(full.value, full.row(full.m + 1))
            )
            # all rows except the pivot row keep their exact entries
            pre = d
            post = quick
            r, m = decision.leaving_row, decision.entering_column
            for i in range(pre.m + 1):
                want = tuple(
                    v for j, v in enumerate(pre.entries[i]) if j != m
                )
                if i == r:
                    assert post.entries[i] == tuple(-v for v in want)
                else:
                    assert post.entries[i] == want
            d = quick
        else:
            d = AuxiliaryDictionary(d).pivot(decision.leaving_row, decision.entering_column)
    assert fired
    assert decision.status is Status.FEASIBLE


def test_trick_on_packed_rows_decodes_no_full_grid():
    # Exact ladders of 21 x 21 cells and up are packed.  The shortcut fires
    # once across these, and it reads columns only: neither dictionary
    # decodes its whole grid (`_num`), and both match the full pivot.
    fired = 0
    for n in (20, 30):
        for shape in af.Shape:
            d = build_auxiliary(problem_from(ladder_text(n, shape)))
            while True:
                decision = traditional_step(d, use_trick=True)
                if decision.status is not None:
                    break
                r, m = decision.leaving_row, decision.entering_column
                aux = AuxiliaryDictionary(d)
                if not decision.via_conjugate:
                    d = aux.pivot(r, m)
                    continue
                fired += 1
                quick = aux.conjugate_pivot(r, m)
                assert isinstance(d, PackedDictionary)
                assert d._num is None and quick._num is None
                full = aux.pivot(r, m)
                assert quick == full
                assert quick.row(quick.m + 1) == full.row(full.m + 1)
                d = quick
    assert fired == 1


def test_trick_on_off_same_verdict():
    for text in (
        "max: x1;\nc1: x1 >= 2;\nc2: x1 <= 2;\n",
        "max: x1;\nc1: x1 + x2 <= 1;\nc2: x1 + x2 >= 1;\n",
        "max: x1;\nc1: x1 <= 1;\nc2: x1 >= 2;\n",
    ):
        sp = problem_from(text)
        results = []
        for use_trick in (False, True):
            aux = build_auxiliary(sp)
            _, status, _ = af.run_traditional_phase1(
                aux, SolveConfig(use_trick=use_trick)
            )
            results.append(status)
        assert results[0] is results[1]


def test_trick_recorded_in_trace():
    sp = problem_from("max: x1;\nc1: x1 >= 2;\nc2: x1 <= 2;\n")
    _, status, trace = af.run_traditional_phase1(
        build_auxiliary(sp), SolveConfig(use_trick=True)
    )
    assert status is Status.FEASIBLE
    assert any(r.via_conjugate for r in trace.records)


def test_cleanup_pivot_for_redundant_row():
    # a redundant equality leaves a zero artificial with no negative
    # pricing entry; the run must still drive it out of the basis
    sp = problem_from("max: x1;\nc1: x1 + x2 <= 1;\nc2: x1 + x2 >= 1;\n")
    d, status, trace = af.run_traditional_phase1(build_auxiliary(sp), SolveConfig())
    assert status is Status.FEASIBLE
    assert trace.pivots == 2
    assert all(l.kind is not LabelKind.ARTIFICIAL for l in d.basis)


def test_strip_ends_infeasible_with_violation_one(strip_sp):
    aux = build_auxiliary(strip_sp)
    d, status, trace = af.run_traditional_phase1(aux, SolveConfig())
    assert status is Status.INFEASIBLE
    # the smallest total constraint violation of the strip is exactly 1
    assert trace.records[-1].infeasibility_after == F(1)
    assert trace.initial_infeasibility == F(2)


def reference_build_auxiliary(sp: StandardProblem) -> Dictionary:
    """Auxiliary starting dictionary for the artificial-variable method.

    Rows with b_i >= 0 keep their slack basic; rows with b_i < 0 get a
    basic artificial (value -b_i > 0) and contribute their slack as a
    nonbasic column.  The auxiliary row expresses minus the artificial
    total over the nonbasic columns.
    """
    mode = sp.mode
    zero = mode.zero
    negative = [i for i in range(sp.m) if mode.sign(sp.b[i]) < 0]
    neg_set = set(negative)

    columns: list[Label] = [structural(j + 1) for j in range(sp.p)]
    columns += [slack(i + 1) for i in negative]
    col_pos = {label: j + 1 for j, label in enumerate(columns)}
    n = len(columns)

    top = [zero] * (n + 1)
    for j in range(sp.p):
        top[1 + j] = -sp.c[j]

    rows: list[tuple[Value, ...]] = [tuple(top)]
    basis: list[Label] = []
    for i in range(sp.m):
        row = [zero] * (n + 1)
        if i in neg_set:
            basis.append(artificial(i + 1))
            row[0] = -sp.b[i]
            for j in range(sp.p):
                row[1 + j] = -sp.A[i][j]
            row[col_pos[slack(i + 1)]] = mode.coerce(-1)
        else:
            basis.append(slack(i + 1))
            row[0] = sp.b[i]
            for j in range(sp.p):
                row[1 + j] = sp.A[i][j]
        rows.append(tuple(row))

    inner = Dictionary(tuple(basis), tuple(columns), tuple(rows), mode)
    # The auxiliary row is minus the sum of the artificial rows; it rides
    # in the grid past the basis rows.
    aux = [0 if isinstance(mode, ExactMode) else zero] * (n + 1)
    for i in negative:
        for j, x in enumerate(inner.num[i + 1]):
            aux[j] -= x
    return Dictionary.from_numerators(
        inner.basis, inner.nonbasis, inner.num + (tuple(aux),), inner.den, mode
    )


RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


@st.composite
def mixed_problems(draw):
    """At most 5 rows and 5 columns after standardization: `<=`, `>=` and
    `=` rows, zero right-hand sides, both senses; exact with denominators
    up to 12 or float with signed zeros.  One draw in two has no row with
    b < 0, so the auxiliary start has no artificial."""
    mode = draw(st.sampled_from([EXACT, FloatMode(), FloatMode(0.5)]))
    cell = RATIONALS if mode is EXACT else FLOATS
    zero = mode.zero
    none_negative = draw(st.booleans())
    p = draw(st.integers(1, 5))
    variables = tuple(f"x{j}" for j in range(1, p + 1))
    constraints = []
    rows_left = 5
    while rows_left and (not constraints or draw(st.booleans())):
        relation = draw(st.sampled_from(list(Relation)))
        if relation is Relation.EQ and rows_left < 2:
            relation = Relation.LE
        rows_left -= 2 if relation is Relation.EQ else 1
        rhs = draw(st.one_of(st.just(zero), cell))
        if none_negative:
            # b = rhs for <=, -rhs for >=, and both for = (so rhs 0)
            rhs = {Relation.LE: abs(rhs), Relation.GE: -abs(rhs), Relation.EQ: zero}[relation]
        coeffs = {v: draw(cell) for v in variables}
        constraints.append(Constraint(f"c{len(constraints)}", coeffs, relation, rhs))
    objective = {v: draw(cell) for v in variables}
    sense = draw(st.sampled_from(list(Sense)))
    gp = GeneralProblem(sense, objective, tuple(constraints), variables, mode)
    return af.standardize(gp)


@settings(max_examples=300, deadline=None)
@given(mixed_problems())
def test_build_auxiliary_matches_reference(sp):
    d, ref = build_auxiliary(sp), reference_build_auxiliary(sp)
    assert d.basis == ref.basis
    assert d.nonbasis == ref.nonbasis
    rows = sp.m + 1  # the basis rows; the auxiliary row follows
    assert d.num[:rows] == ref.num[:rows]
    assert repr(d.num[:rows]) == repr(ref.num[:rows])  # signed zeros too
    assert d.den == ref.den
    # The reference subtracts from 0.0 and gets 0.0 where minus a sum of
    # zeros is -0.0, and its row is 0.0s where there is no artificial to
    # sum: equal values, not equal bits.
    assert d.row(d.m + 1) == ref.row(ref.m + 1)


def _assert_same_start(got: Dictionary, want: Dictionary, rows=None) -> None:
    """The two starts agree bit for bit, on their first `rows` grid rows
    when given."""
    assert type(got) is type(want)
    assert got.basis == want.basis
    assert got.nonbasis == want.nonbasis
    assert got.num[:rows] == want.num[:rows]
    assert repr(got.num[:rows]) == repr(want.num[:rows])  # signed zeros and int/float too
    assert got.den == want.den
    assert got._d0 == want._d0
    assert got._scaled == want._scaled


@settings(max_examples=300, deadline=None)
@given(mixed_problems(), st.data())
def test_starting_dictionaries_match_the_value_grid(sp, data):
    # Both starts come from the problem's numerators; the constructor
    # reads the same grid as values.  Walked by the textbook formula on
    # the values, they stay equal: in exact mode every sigma (D0 on the
    # first pivot out of a scaled label, 1/D0 back) divides exactly, and
    # a float pivot makes the formula's operations in its order.
    mode = sp.mode
    values = ((mode.zero, *[-x for x in sp.c]), *((b, *a) for b, a in zip(sp.b, sp.A)))
    basis = tuple(slack(i + 1) for i in range(sp.m))
    nonbasis = tuple(structural(j + 1) for j in range(sp.p))
    aux = build_auxiliary(sp)
    _assert_same_start(initial_dictionary(sp), Dictionary(basis, nonbasis, values, mode))
    # The auxiliary rows are equal values, not equal bits (see above).
    _assert_same_start(aux, reference_build_auxiliary(sp), sp.m + 1)
    for d in (initial_dictionary(sp), aux):
        reference = d.entries
        for _ in range(data.draw(st.integers(0, 4))):
            spots = [
                (i, j)
                for i in range(1, d.m + 1)
                for j in range(1, d.n + 1)
                if mode.sign(reference[i][j]) != 0
            ]
            if not spots:
                break
            r, m = data.draw(st.sampled_from(spots))
            d = d.pivot(r, m)
            reference = reference_pivot(reference, r, m)
            assert d.den > 0
            got = d.entries
            assert got == reference
            assert repr(got) == repr(reference)


def test_starting_dictionaries_build_no_fraction():
    # D0 = 6, and rows 2 and 3 have b < 0, so the auxiliary start negates
    # them and adds two artificials.
    text = "max: 1/2 x1 + x2;\nc1: x1 + 1/3 x2 <= 4;\nc2: x1 >= 1/2;\nc3: x1 + x2 >= 2;\n"
    for start in (initial_dictionary, build_auxiliary):
        sp = problem_from(text)  # a fresh problem, whose numerators are not yet cached
        assert fractions_built_during(start, sp) == 0
    sp = problem_from(text)
    inner = build_auxiliary(sp)
    assert inner.den == 6
    assert len(artificial_rows(inner)) == 2
    # the hook sees the reference negate b, A and c as Fractions
    assert fractions_built_during(reference_build_auxiliary, sp) > 0


def _guard_start(pad: int) -> Dictionary:
    """An exact auxiliary start where row c1 holds w1 at value zero with
    x1's entry -1, x1's column is nonzero in row c2 too, and row c3 holds
    an artificial; `pad` bound rows on fresh columns widen the grid."""
    text = "max: x1;\nc1: -x1 <= 0;\nc2: x1 <= 3;\nc3: x1 + x2 >= 1;\n" + "".join(
        f"c{k}: x{k} <= 5;\n" for k in range(4, pad + 4)
    )
    return build_auxiliary(problem_from(text))


def test_conjugate_guards_raise_on_tuple_and_packed_rows():
    for pad, packed in ((0, False), (12, True)):
        d = _guard_start(pad)
        assert isinstance(d, PackedDictionary) is packed
        w1, art = d.basis.index(slack(1)) + 1, d.basis.index(artificial(3)) + 1
        x1, x2 = (d.nonbasis.index(structural(j)) + 1 for j in (1, 2))
        assert (d.rhs(w1), d.entry(w1, x1), d.entry(w1, x2)) == (0, -1, 0)
        aux = AuxiliaryDictionary(d)
        with pytest.raises(ValueError, match="not an artificial"):
            conjugate_column(d, w1)
        with pytest.raises(ValueError, match="zero-valued pivot row"):
            aux.conjugate_pivot(art, conjugate_column(d, art))
        with pytest.raises(ValueError, match="not -1"):
            aux.conjugate_pivot(w1, x2)
        with pytest.raises(RuntimeError, match="leaks into row"):
            aux.conjugate_pivot(w1, x1)
