"""Artificial-free phase 1.

Feasibility is reached by pivoting on the original dictionary, with no
auxiliary variables and no auxiliary objective row.  Each step prices
columns with the vector W obtained by summing the rows that currently
have a negative right-hand side; a column with negative W can reduce the
total infeasibility, and the ratio test below picks the unique leaving
row that keeps every feasible row feasible while never pushing an
infeasible row past zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .dictionary import Dictionary, Label
from .numeric import ExactMode, Value
from .trace import Decision, SolveConfig, Status, TieBreak, Trace, drive


class NoEligibleRow(RuntimeError):
    """The ratio test found no eligible row; with a correctly chosen
    entering column this indicates an internal error, not an input."""


def infeasible_rows(d: Dictionary) -> frozenset[int]:
    """Indices of rows whose basic variable is currently negative.  W and
    phi add them in the set's order, which is not ascending and sets a
    float sum's bits: `list(frozenset({5, 10}))` is `[10, 5]`."""
    rhs, cut = d.column(0), -d.mode.eps
    return frozenset(i for i in range(1, d.m + 1) if rhs[i] < cut)


def infeasibility_sum(d: Dictionary) -> Value:
    """Total constraint violation phi = -W_0: minus column 0 of the row sum
    over the infeasible rows, which adds them one by one."""
    rows = infeasible_rows(d)
    if not rows:
        return d.mode.zero
    return d.value(-d.sum_rows(rows)[0])


def phase1_objective_vector(d: Dictionary, rows: frozenset[int]) -> tuple[Value, ...]:
    """W: the columnwise sum of the infeasible rows (zero vector if none)."""
    return tuple(map(d.value, d.sum_rows(rows)[1:]))


def select_entering(
    w: Sequence[Value], nonbasis: tuple[Label, ...], mode
) -> Optional[int]:
    """Most negative W entry; ties go to the smallest nonbasis label.

    Returns the 1-based column index, or None when no entry is negative
    (which, with infeasible rows present, certifies infeasibility).  The
    entries may be values or numerators over one positive denominator:
    the choice is the same.  Phase 2 and the traditional method price
    their objective rows with it too.  A NaN entry classifies as no sign,
    so it is never chosen.
    """
    cut, best = -mode.eps, None
    for j, x in enumerate(w):
        if x < cut and (best is None or x < low or (x == low and nonbasis[j] < nonbasis[best])):
            best, low = j, x
    return None if best is None else best + 1


def select_leaving(
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

    Float mode compares the quotients rhs / entry.  Exact mode compares
    two candidates' integer numerators by cross-multiplication and builds
    one Fraction, the winner's ratio.
    """
    mode = d.mode
    exact, eps = isinstance(mode, ExactMode), mode.eps
    cut = -eps
    rhs_column, column = d.column(0), d.column(m)
    best_row: Optional[int] = None
    best = None  # the best row's ratio, in exact mode as (|rhs|, |entry|)
    for i in range(1, d.m + 1):
        rhs, entry = rhs_column[i], column[i]
        if not (entry < cut if rhs < cut else entry > eps):
            continue
        # The common denominator cancels, and on an eligible row
        # rhs / entry = |rhs| / |entry|.
        ratio = (abs(rhs), abs(entry)) if exact else rhs / entry
        if best_row is None:
            best_row, best = i, ratio
            continue
        if exact:  # cross-multiply: no fraction is built to compare
            here, there = ratio[0] * best[1], best[0] * ratio[1]
        else:
            here, there = ratio, best
        if here < there:
            best_row, best = i, ratio
        elif here == there:
            best_row = break_tie(d, m, best_row, i, tie_break)
    if exact and best is not None:
        best = Fraction(*best)
    return best_row, best


def break_tie(d: Dictionary, m: int, current: int, challenger: int, rule: TieBreak) -> int:
    """The row that wins a minimum-ratio tie in column m under `rule`;
    equal pivot magnitudes fall back to the smaller basis label."""
    if rule is TieBreak.SMALLEST_LABEL:
        keep = d.row_label(current) < d.row_label(challenger)
    else:
        column = d.column(m)
        cur, cha = abs(column[current]), abs(column[challenger])
        if cur == cha:
            keep = d.row_label(current) < d.row_label(challenger)
        elif rule is TieBreak.SMALLEST_ABS_PIVOT:
            keep = cur < cha
        else:
            keep = cur > cha
    return current if keep else challenger


def phase1_step(d: Dictionary, tie_break: TieBreak = TieBreak.SMALLEST_LABEL) -> Decision:
    """One pricing-and-ratio decision, priced by W; performs no pivot itself.
    It carries phi = -W_0, read from column 0 of the same row sum."""
    rows = infeasible_rows(d)
    if not rows:
        return Decision(None, None, None, Status.FEASIBLE, d.mode.zero)
    total = d.sum_rows(rows)
    phi = d.value(-total[0])
    m = select_entering(total[1:], d.nonbasis, d.mode)
    if m is None:
        # W >= 0 over rows that must all rise: no entering column can help.
        return Decision(None, None, None, Status.INFEASIBLE, phi)
    r, ratio = select_leaving(d, m, tie_break)
    if r is None:
        raise NoEligibleRow(f"no eligible row in column {m}")
    return Decision(m, r, ratio, None, phi)


class InvariantMonitor:
    """Checks the per-pivot guarantees of the method and records violations.

    Hooked into run_phase1 by tests; every observe() call checks one
    performed pivot against the pre-pivot dictionary: W_m < 0, t >= 0, an
    eligible leaving row, no row joins L (every row of
    `infeasible_rows(after)` has a basic label that was negative before),
    phi' = phi + t * W_m in exact mode, and phi never rising (falling
    whenever t > 0).  The monitor prices W from the pre-pivot dictionary
    itself rather than trusting the step's numbers.
    """

    def __init__(self):
        self.checks = 0
        self.violations: list[str] = []

    def _flag(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def observe(self, before: Dictionary, decision: Decision, after: Dictionary) -> None:
        mode = before.mode
        self.checks += 1
        m, r = decision.entering_column, decision.leaving_row
        l_before = infeasible_rows(before)
        w_m = phase1_objective_vector(before, l_before)[m - 1]
        t = decision.ratio
        self._flag(mode.sign(w_m) < 0, f"entering column {m} has W = {w_m}")
        self._flag(mode.sign(t) >= 0, f"selected ratio {t} is negative")

        # Leaving row must be one of the two eligible categories.
        rhs_sign = mode.sign(before.rhs(r))
        entry_sign = mode.sign(before.entry(r, m))
        ok = (rhs_sign < 0 and entry_sign < 0) or (rhs_sign >= 0 and entry_sign > 0)
        self._flag(ok, f"leaving row {r} not eligible (rhs sign {rhs_sign}, entry sign {entry_sign})")

        # No variable joins L: every negative basic variable after the
        # pivot was already negative (so basic) before it.
        negative = {before.row_label(i) for i in l_before}
        for i in sorted(infeasible_rows(after)):
            label = after.row_label(i)
            self._flag(label in negative, f"{label.name} joined L at {after.rhs(i)}")

        # The violation total obeys phi' = phi + t * W_m (strict decrease
        # whenever t > 0).
        phi_before = infeasibility_sum(before)
        phi_after = infeasibility_sum(after)
        if isinstance(mode, ExactMode):
            self._flag(
                phi_after == phi_before + t * w_m,
                f"phi {phi_before} -> {phi_after} but t*W = {t * w_m}",
            )
        self._flag(
            mode.sign(phi_after - phi_before) <= 0,
            f"phi rose from {phi_before} to {phi_after}",
        )
        if mode.sign(t) > 0:
            self._flag(
                mode.sign(phi_after - phi_before) < 0,
                f"positive step t={t} left phi at {phi_after}",
            )


def run_phase1(
    d: Dictionary,
    config: Optional[SolveConfig] = None,
    monitor: Optional[InvariantMonitor] = None,
) -> tuple[Dictionary, Status, Trace]:
    """Drive phase1_step to a stop, recording a trace.

    Stops with FEASIBLE or INFEASIBLE normally; CYCLE_DETECTED when a
    basis repeats (exact mode), ITERATION_LIMIT when the pivot budget is
    spent.  Degenerate pivots (ratio zero) are legal here only through a
    feasible row with zero rhs and positive column entry.
    """
    cfg = config or SolveConfig()
    return drive(
        "af_phase1",
        d,
        lambda d: phase1_step(d, cfg.tie_break),
        cfg,
        observe=None if monitor is None else monitor.observe,
    )
