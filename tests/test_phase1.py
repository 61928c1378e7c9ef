"""Artificial-free phase 1: pricing, ratio rule, goldens, invariants."""

from fractions import Fraction as F
from typing import Optional

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.dictionary import (
    Dictionary,
    artificial,
    initial_dictionary,
    slack,
    structural,
)
from afsimplex.numeric import EXACT, FloatMode, Value
from afsimplex.packed import PackedDictionary
from afsimplex.phase1 import (
    break_tie,
    infeasibility_sum,
    infeasible_rows,
    phase1_objective_vector,
    phase1_step,
    select_entering,
    select_leaving,
)
from afsimplex.trace import Decision, SolveConfig, Status, TieBreak

from conftest import fractions_built_during, ladder_text, problem_from, replayed_pricing


def test_walk_golden_trace(walk_sp):
    d0 = initial_dictionary(walk_sp)
    cfg = SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT)
    d1, status, trace = af.run_phase1(d0, cfg)

    assert status is Status.FEASIBLE
    assert trace.pivots == 3
    assert [(r.entering.name, r.leaving.name) for r in trace.records] == [
        ("x1", "w1"),
        ("x2", "w3"),
        ("w1", "w4"),
    ]
    assert replayed_pricing(walk_sp, trace) == [
        (F(-9), F(-8)),
        (F(9), F(-8)),
        (F(-2), F(-1)),
    ]
    assert [r.ratio for r in trace.records] == [F(4), F(3), F(2)]
    assert trace.corners == (
        (F(0), F(0)),
        (F(4), F(0)),
        (F(4), F(3)),
        (F(2), F(6)),
    )
    # infeasibility walk 64 -> 28 -> 4 -> 0
    assert trace.initial_infeasibility == F(64)
    assert [r.infeasibility_after for r in trace.records] == [F(28), F(4), F(0)]
    assert d1.entries[0] == (F(36), F(-9), F(2))
    assert [l.name for l in d1.basis] == ["x1", "w2", "x2", "w1", "w5"]


def test_walk_exact_decrease_identity(walk_sp):
    # each pivot moves the infeasibility sum by exactly ratio * W[m]
    d = initial_dictionary(walk_sp)
    cfg = SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT)
    while True:
        decision = phase1_step(d, cfg.tie_break)
        if decision.status is not None:
            break
        before = infeasibility_sum(d)
        w = phase1_objective_vector(d, infeasible_rows(d))
        w_m = w[decision.entering_column - 1]
        d = d.pivot(decision.leaving_row, decision.entering_column)
        assert infeasibility_sum(d) == before + decision.ratio * w_m


def test_walk_smallest_label_also_three_pivots(walk_sp):
    # the tie at the third pivot resolves to w2 instead of w4, but the
    # pivot count and the final corner agree
    d0 = initial_dictionary(walk_sp)
    d1, status, trace = af.run_phase1(d0, SolveConfig())
    assert status is Status.FEASIBLE
    assert trace.pivots == 3
    assert trace.records[2].leaving.name == "w2"
    assert trace.corners[-1] == (F(2), F(6))


def test_already_feasible_is_a_no_op():
    sp = problem_from("max: x1;\nc1: x1 <= 5;\n")
    d0 = initial_dictionary(sp)
    decision = phase1_step(d0, TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.FEASIBLE
    d1, status, trace = af.run_phase1(d0, SolveConfig())
    assert status is Status.FEASIBLE
    assert trace.pivots == 0
    assert d1 == d0


def test_strip_detected_infeasible(strip_sp):
    d0 = initial_dictionary(strip_sp)
    d1, status, trace = af.run_phase1(d0, SolveConfig())
    assert status is Status.INFEASIBLE
    assert trace.pivots == 1
    # pricing at the stuck dictionary is nonnegative while rows stay short
    decision = phase1_step(d1, TieBreak.SMALLEST_LABEL)
    assert decision.status is Status.INFEASIBLE
    assert phase1_objective_vector(d1, infeasible_rows(d1)) == (F(1),)
    assert infeasible_rows(d1)
    # the brute-force enumeration agrees the region is empty
    assert not af.enumerate_vertices(strip_sp).feasible


def test_pricing_vector_sums_infeasible_rows(walk_sp):
    d = initial_dictionary(walk_sp)
    rows = infeasible_rows(d)
    assert rows == frozenset({2, 3, 4, 5})
    assert phase1_objective_vector(d, rows) == (F(-9), F(-8))
    assert infeasibility_sum(d) == F(64)


def test_entering_column_is_the_most_negative_then_the_smallest_label():
    labels = (structural(2), slack(1), structural(1), structural(3))
    assert select_entering([-3, -5, 4, -5], labels, EXACT) == 4
    assert select_entering([F(-5, 2), F(-5, 2), 0, 1], labels, EXACT) == 1
    assert select_entering([0, 0, 2, 0], labels, EXACT) is None
    # within eps of zero is no sign, however it orders
    assert select_entering([-1e-10, 3.0, -2e-10, 1.0], labels, FloatMode(1e-9)) is None


def test_a_nan_entry_is_never_the_entering_column():
    nan, mode = float("nan"), FloatMode(1e-9)
    labels = tuple(structural(j + 1) for j in range(3))
    # min() over the raw entries would return the NaN that comes first
    assert select_entering([nan, -1.0, -0.5], labels, mode) == 2
    assert select_entering([-0.5, nan, -1.0], labels, mode) == 3
    assert select_entering([nan, 1.0, nan], labels, mode) is None


def test_zero_rhs_row_is_not_eligible():
    # leaving rule skips rows already at zero even when their entry is
    # negative; only w2 below may leave for the first column
    d = Dictionary(
        basis=(slack(1), slack(2)),
        nonbasis=(structural(1),),
        entries=((F(0), F(0)), (F(0), F(-1)), (F(-4), F(-2))),
    )
    assert select_leaving(d, 1, TieBreak.SMALLEST_LABEL) == (2, F(2))


def test_positive_rows_guard_the_ratio():
    # a feasible row with a positive entry caps how far the pivot may go
    d = Dictionary(
        basis=(slack(1), slack(2)),
        nonbasis=(structural(1),),
        entries=((F(0), F(0)), (F(3), F(2)), (F(-4), F(-2))),
    )
    assert select_leaving(d, 1, TieBreak.SMALLEST_LABEL) == (1, F(3, 2))


def classical_min_ratio(d, m, tie_break):
    """The textbook leaving rule, kept as the reference for select_leaving
    on primal-feasible dictionaries: the least rhs / entry over the
    positive entries of column m, ties to the rule and then to the
    smaller basis label; (None, None) when no entry is positive."""
    mode = d.mode
    rows = [i for i in range(1, d.m + 1) if mode.sign(d.entry(i, m)) > 0]
    if not rows:
        return None, None
    ratio = {i: d.rhs(i) / d.entry(i, m) for i in rows}
    best = min(ratio.values())
    tied = [i for i in rows if ratio[i] == best]
    pivot = {
        TieBreak.SMALLEST_LABEL: lambda i: 0,
        TieBreak.SMALLEST_ABS_PIVOT: lambda i: abs(d.entry(i, m)),
        TieBreak.LARGEST_ABS_PIVOT: lambda i: -abs(d.entry(i, m)),
    }[tie_break]
    return min(tied, key=lambda i: (pivot(i), d.row_label(i))), best


CELLS = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2]))


@st.composite
def primal_feasible_dictionaries(draw):
    """Dictionaries with every rhs >= 0 (zero included), rational or float
    entries, and basis labels in a drawn order so that label ties matter."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    labels = [slack(i + 1) for i in range(m)] + [structural(j + 1) for j in range(n)]
    labels = draw(st.permutations(labels))
    rows = [tuple(draw(CELLS) for _ in range(n + 1))]
    for _ in range(m):
        rhs = draw(st.integers(0, 2).map(F))  # small, so that ratios tie
        rows.append((rhs,) + tuple(draw(CELLS) for _ in range(n)))
    mode = draw(st.sampled_from([EXACT, FloatMode()]))
    if mode is not EXACT:
        rows = [tuple(map(float, row)) for row in rows]
    return Dictionary(tuple(labels[:m]), tuple(labels[m:]), tuple(rows), mode)


@given(
    primal_feasible_dictionaries(),
    st.integers(1, 3),
    st.sampled_from(list(TieBreak)),
)
def test_leaving_rule_is_classical_on_feasible_dictionaries(d, m, tie_break):
    # phase 2 and the traditional method rely on this agreement
    m = min(m, d.n)
    assert select_leaving(d, m, tie_break) == classical_min_ratio(d, m, tie_break)


def reference_select_leaving(
    d: Dictionary, m: int, tie_break: TieBreak = TieBreak.SMALLEST_LABEL
) -> tuple[Optional[int], Optional[Value]]:
    """Ratio test over column m; returns (row, ratio), or (None, None)
    when no row is eligible.

    A row is eligible when rhs and column entry are both negative, or
    when rhs is nonnegative and the entry is positive.  A row with rhs
    zero and a negative entry is deliberately not eligible: pivoting
    there would be the degenerate step the method exists to avoid.
    Minimum ratio wins; ties fall to the configured rule, then to the
    smallest basis label.  On a primal-feasible dictionary only the
    second kind exists, so this is the classical minimum-ratio test, and
    phase 2 and the traditional method use it as such.
    """
    mode = d.mode
    best_row: Optional[int] = None
    best_ratio: Optional[Value] = None
    for i in range(1, d.m + 1):
        rhs, entry = d.num[i][0], d.num[i][m]
        entry_sign = mode.sign(entry)
        if mode.sign(rhs) < 0:
            eligible = entry_sign < 0
        else:
            eligible = entry_sign > 0
        if not eligible:
            continue
        # the common denominator cancels; this is the quotient the removed
        # mode.div returned, spelled out per mode
        ratio = F(rhs, entry) if mode is EXACT else rhs / entry
        if best_ratio is None or ratio < best_ratio:
            best_row, best_ratio = i, ratio
        elif ratio == best_ratio:
            best_row = break_tie(d, m, best_row, i, tie_break)
    return best_row, best_ratio


# Small values, so that ratios tie; a zero right-hand side is common.
RHS = st.integers(-2, 2).map(F)
ENTRY = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def ratio_test_dictionaries(draw, mode):
    """A dictionary of mixed-sign rows with rational entries (so D0 is
    often 2, 3 or 6), labels of all three kinds in a drawn order, after up
    to two arbitrary pivots, and a column to run the ratio test on."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    labels = [slack(i + 1) for i in range(m)] + [structural(j + 1) for j in range(n)]
    labels[draw(st.integers(0, m + n - 1))] = artificial(1)
    labels = draw(st.permutations(labels))
    rows = [tuple(draw(ENTRY) for _ in range(n + 1))]
    rows += [(draw(RHS),) + tuple(draw(ENTRY) for _ in range(n)) for _ in range(m)]
    if mode is not EXACT:
        rows = [tuple(map(float, row)) for row in rows]
    d = Dictionary(tuple(labels[:m]), tuple(labels[m:]), tuple(rows), mode)
    for _ in range(draw(st.integers(0, 2))):
        spots = _nonzero_spots(d)
        if spots:
            d = d.pivot(*draw(st.sampled_from(spots)))
    return d, draw(st.integers(1, n))


# Rows 1, 2 and 4 (w3, x2, a1) tie at ratio 1/2 with pivots -4/3, 4/3 and
# 2/3 over D0 = 3; row 3 has rhs zero and a negative entry.
TIED = Dictionary(
    (slack(3), structural(2), slack(1), artificial(1)),
    (structural(1),),
    ((F(0), F(1)), (F(-2, 3), F(-4, 3)), (F(2, 3), F(4, 3)), (F(0), F(-1)),
     (F(1, 3), F(2, 3))),
)


@given(ratio_test_dictionaries(EXACT), st.sampled_from(list(TieBreak)))
@example((TIED, 1), TieBreak.SMALLEST_LABEL)
@example((TIED, 1), TieBreak.SMALLEST_ABS_PIVOT)
@example((TIED, 1), TieBreak.LARGEST_ABS_PIVOT)
@settings(max_examples=400)
def test_ratio_test_matches_reference(case, tie_break):
    d, m = case
    row, ratio = select_leaving(d, m, tie_break)
    assert (row, ratio) == reference_select_leaving(d, m, tie_break)
    assert ratio is None or type(ratio) is F


@given(ratio_test_dictionaries(FloatMode(eps=1e-9)), st.sampled_from(list(TieBreak)))
@settings(max_examples=400)
def test_float_ratio_test_matches_reference(case, tie_break):
    d, m = case
    row, ratio = select_leaving(d, m, tie_break)
    expected_row, expected = reference_select_leaving(d, m, tie_break)
    assert row == expected_row
    assert ratio is expected is None or ratio.hex() == expected.hex()


def test_tied_ratios_follow_the_rule():
    # x2 is the smallest label, a1 the smallest |pivot|; x2 wins the tie of
    # the two largest |pivot|s by its label
    assert select_leaving(TIED, 1, TieBreak.SMALLEST_LABEL) == (2, F(1, 2))
    assert select_leaving(TIED, 1, TieBreak.SMALLEST_ABS_PIVOT) == (4, F(1, 2))
    assert select_leaving(TIED, 1, TieBreak.LARGEST_ABS_PIVOT) == (2, F(1, 2))


def test_exact_ratio_test_builds_at_most_one_fraction():
    # 30 rational rows, every one eligible: 15 feasible rows with positive
    # entries and 15 infeasible rows with negative ones.
    rows = [(F(0), F(1))]
    for i in range(1, 31):
        sign = 1 if i % 2 else -1
        rows.append((F(sign * (40 + i), 7), F(sign * (i + 3), 5)))
    d = Dictionary(tuple(slack(i) for i in range(1, 31)), (structural(1),), tuple(rows))
    assert d.den == 35
    assert fractions_built_during(select_leaving, d, 1, TieBreak.SMALLEST_LABEL) <= 1
    # the hook sees the reference's one Fraction per eligible row
    assert fractions_built_during(reference_select_leaving, d, 1) >= 30


def test_monitor_collects_checks(walk_sp):
    monitor = af.InvariantMonitor()
    d0 = initial_dictionary(walk_sp)
    af.run_phase1(d0, SolveConfig(), monitor=monitor)
    assert monitor.checks == 3
    assert monitor.violations == []


@pytest.mark.parametrize("shape", list(af.Shape), ids=lambda shape: shape.value)
def test_monitor_holds_on_packed_rows(shape):
    # 21 x 21 grids: the monitor's W, phi, rhs and entry reads go through
    # the packed decoders.
    d0 = initial_dictionary(problem_from(ladder_text(20, shape)))
    assert isinstance(d0, PackedDictionary)
    monitor = af.InvariantMonitor()
    _, _, trace = af.run_phase1(d0, SolveConfig(), monitor=monitor)
    assert monitor.checks == trace.pivots > 0
    assert monitor.violations == []


def test_monitor_prices_w_from_the_dictionary(walk_sp):
    # after the walk's first pivot W = (9, -8): column 1 cannot enter, and
    # the monitor must see that from the dictionary, not from the decision
    before = initial_dictionary(walk_sp).pivot(1, 1)
    monitor = af.InvariantMonitor()
    monitor.observe(before, Decision(1, 1, 4, None, infeasibility_sum(before)), before.pivot(1, 1))
    assert "entering column 1 has W = 9" in monitor.violations


def reference_feasibility_violations(before, after):
    """The monitor's feasibility checks before they became one subset test,
    kept as the reference for it: a label whose value is >= 0 (nonbasic
    labels count as 0) keeps a value >= 0, and |L| never grows."""
    mode = before.mode

    def values(d):
        vals = {label: d.rhs(i) for i, label in enumerate(d.basis, start=1)}
        vals.update({label: mode.zero for label in d.nonbasis})
        return vals

    violations = []
    before_vals, after_vals = values(before), values(after)
    for label, value in before_vals.items():
        if mode.sign(value) >= 0 and mode.sign(after_vals[label]) < 0:
            violations.append(f"{label.name} went from {value} to {after_vals[label]}")
    l_before, l_after = infeasible_rows(before), infeasible_rows(after)
    if len(l_after) > len(l_before):
        violations.append(f"|L| grew from {len(l_before)} to {len(l_after)}")
    return violations


def _nonzero_spots(d):
    return [
        (i, j)
        for i in range(1, d.m + 1)
        for j in range(1, d.n + 1)
        if d.mode.sign(d.num[i][j]) != 0
    ]


@st.composite
def pivoted_dictionaries(draw):
    """A random integer dictionary, exact or float, after up to two
    arbitrary pivots, with one more arbitrary nonzero pivot (r, m)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    rows = [tuple(draw(st.integers(-5, 5)) for _ in range(n + 1)) for _ in range(m + 1)]
    mode = draw(st.sampled_from([EXACT, FloatMode()]))
    if mode is not EXACT:
        rows = [tuple(map(float, row)) for row in rows]
    d = Dictionary(
        tuple(slack(i + 1) for i in range(m)),
        tuple(structural(j + 1) for j in range(n)),
        tuple(rows),
        mode,
    )
    assume(_nonzero_spots(d))  # a pivot leaves 1/p in its spot, so one stays
    for _ in range(draw(st.integers(0, 2))):
        d = d.pivot(*draw(st.sampled_from(_nonzero_spots(d))))
    return d, draw(st.sampled_from(_nonzero_spots(d)))


@given(pivoted_dictionaries())
@settings(max_examples=300)
def test_no_row_joins_l_matches_the_per_label_checks(case):
    before, (r, m) = case
    after = before.pivot(r, m)
    # the quotient the removed mode.div returned, spelled out per mode
    rhs, entry = before.num[r][0], before.num[r][m]
    ratio = F(rhs, entry) if before.mode is EXACT else rhs / entry
    monitor = af.InvariantMonitor()
    monitor.observe(before, Decision(m, r, ratio, None, infeasibility_sum(before)), after)
    joined = [v for v in monitor.violations if " joined L at " in v]
    reference = reference_feasibility_violations(before, after)
    assert bool(joined) == bool(reference)
    assert {v.split()[0] for v in joined} == {
        v.split()[0] for v in reference if not v.startswith("|L|")
    }


def reference_column_sums(d: Dictionary, rows: frozenset[int]) -> list:
    """Numerators of W over d.den; rows must not be empty."""
    w = [0] * d.n
    for i in rows:
        row = d.num[i]
        for j in range(1, d.n + 1):
            w[j - 1] += row[j]
    return w


@given(pivoted_dictionaries(), st.data())
@settings(max_examples=300)
def test_row_sum_prices_w_as_the_column_sums_did(case, data):
    # Float W picks the entering column, so its summation order is kept.
    d, _ = case
    rows = frozenset(data.draw(st.sets(st.integers(1, d.m), min_size=1)))
    total = d.sum_rows(rows)
    w = reference_column_sums(d, rows)
    if d.mode is not EXACT:
        assert [x.hex() for x in total[1:]] == [x.hex() for x in w]
        return
    assert list(total[1:]) == w
    assert total[0] == sum(d.num[i][0] for i in rows)
    # phi is minus column 0 of the row sum over L
    assert d.value(d.sum_rows(infeasible_rows(d))[0]) == -infeasibility_sum(d)


def test_row_sum_of_no_rows_is_zero(walk_sp):
    assert initial_dictionary(walk_sp).sum_rows(()) == (0, 0, 0)


def test_float_infeasibility_sum_adds_left_to_right():
    # Added one by one, -1e16 - 1 - 1 rounds back to -1e16 twice; the
    # compensated float `sum` of Python 3.12 and later gives -1e16 - 2.
    d = Dictionary(
        (slack(1), slack(2), slack(3)),
        (structural(1),),
        ((0.0, 1.0), (-1e16, -1.0), (-1.0, -1.0), (-1.0, -1.0)),
        FloatMode(1e-9),
    )
    assert infeasibility_sum(d) == 1e16 == -(0 + -1e16 + -1.0 + -1.0)


def test_monitor_names_the_slack_that_joins_l():
    # w1 = 1 - x1 and w2 = 4 - x1: x1 may rise to 1, and pivoting on w2
    # instead (ratio 4) leaves w1 = -3 + w2
    before = Dictionary(
        basis=(slack(1), slack(2)),
        nonbasis=(structural(1),),
        entries=((F(0), F(0)), (F(1), F(1)), (F(4), F(1))),
    )
    monitor = af.InvariantMonitor()
    decision = Decision(1, 2, F(4), None, infeasibility_sum(before))
    monitor.observe(before, decision, before.pivot(2, 1))
    assert "w1 joined L at -3" in monitor.violations


def test_iteration_budget_stops_the_loop(walk_sp):
    d0 = initial_dictionary(walk_sp)
    _, status, trace = af.run_phase1(d0, SolveConfig(max_iterations=1))
    assert status is Status.ITERATION_LIMIT
    assert trace.pivots == 1
