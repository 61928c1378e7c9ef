"""Artificial-variable phase 1, kept as the reference method.

Rows whose right-hand side is negative get an artificial basic variable
(rows already satisfied at the origin keep their slack); the auxiliary
objective drives the total artificial value to zero with the classical
Dantzig rule and minimum-ratio test.

The state is a plain `Dictionary` whose grid carries the auxiliary row
as row m + 1, past the basis rows.  The row rides through every pivot
and dropped column by the rule that updates the other rows, and its
value is minus the basic artificials' total.  Artificial columns are
never materialized: `AuxiliaryDictionary.pivot` retires an artificial
that leaves the basis on the spot, so on FEASIBLE the method ends with a
dictionary over the original labels, its auxiliary row still riding.

A basic artificial sitting at value zero can always be swapped out
against its conjugate slack, whose coefficient in that row is exactly -1
for as long as the artificial stays basic.  Pivoting there only negates
the pivot row and touches the two objective rows; every other row is
unchanged bit for bit.  That shortcut is the optional "trick" below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dictionary import Dictionary, LabelKind, artificial, slack, structural
from .model import StandardProblem
from .numeric import ExactMode
from .phase1 import NoEligibleRow, select_entering, select_leaving
from .trace import Decision, SolveConfig, Status, TieBreak, Trace, drive


def artificial_rows(d: Dictionary) -> tuple[int, ...]:
    """Rows whose basic label is an artificial, in ascending order."""
    return tuple(
        i for i, label in enumerate(d.basis, start=1) if label.kind is LabelKind.ARTIFICIAL
    )


def conjugate_column(d: Dictionary, row: int) -> int:
    """Nonbasis position of the slack conjugate to the artificial in `row`.
    While the artificial is basic, that slack's column has one nonzero
    entry, the -1 in this row, so the slack cannot have entered."""
    label = d.row_label(row)
    if label.kind is not LabelKind.ARTIFICIAL:
        raise ValueError(f"row {row} holds {label.name}, not an artificial")
    return d.nonbasis.index(slack(label.index)) + 1


@dataclass(frozen=True)
class AuxiliaryDictionary:
    """The artificial method's pivot rule over the dictionary `inner`; a
    class only because perfbench's tracer wraps its two methods by name."""

    inner: Dictionary

    def pivot(self, r: int, m: int) -> Dictionary:
        """Pivot both objective rows; retire the column of a leaving artificial."""
        leaving = self.inner.row_label(r)
        d = self.inner.pivot(r, m)
        return d.drop_column(m) if leaving.kind is LabelKind.ARTIFICIAL else d

    def conjugate_pivot(self, r: int, m: int) -> Dictionary:
        """The shortcut pivot for a zero-valued basic artificial.

        Requires entry (r, m) to be exactly -1 with rhs 0 and column m to
        be zero in every other row; the pivot then only negates row r and
        adjusts the two objective rows, and the leaving artificial's
        column is retired as usual.
        """
        d = self.inner
        sign = d.mode.sign
        column = d.column(m)
        if sign(d.column(0)[r]) != 0:
            raise ValueError("conjugate pivot needs a zero-valued pivot row")
        if sign(column[r] + d.den) != 0:  # N_rm / D = -1 exactly when N_rm = -D
            raise ValueError("conjugate slack coefficient is not -1")
        for i in range(1, d.m + 1):
            if i != r and sign(column[i]) != 0:
                raise RuntimeError(
                    f"conjugate slack column leaks into row {i}; dictionary corrupt"
                )
        return self.pivot(r, m)


def build_auxiliary(sp: StandardProblem) -> Dictionary:
    """Auxiliary starting dictionary for the artificial-variable method.

    Rows with b_i >= 0 keep their slack basic; rows with b_i < 0 get a
    basic artificial (value -b_i > 0) and contribute their slack as a
    nonbasic column.  The numerators are those of `initial_dictionary`,
    over the same D0, with the rows of b_i < 0 negated and one column of
    -1 (numerator -D0) per artificial.  Row m + 1, the auxiliary row, is
    minus the artificial rows' sum, added up as `Dictionary.sum_rows` does.
    """
    mode = sp.mode
    num, den = sp.grid
    negative = [i for i in range(1, sp.m + 1) if mode.sign(num[i][0]) < 0]
    if isinstance(mode, ExactMode):
        zero, unit = 0, -den
    else:
        zero, unit = mode.zero, mode.coerce(-1)
    pad = (zero,) * len(negative)
    rows = [row + pad for row in num]
    basis = [slack(i) for i in range(1, sp.m + 1)]
    for k, i in enumerate(negative):
        rows[i] = (*[-x for x in num[i]], *pad[:k], unit, *pad[k + 1 :])
        basis[i - 1] = artificial(i)
    columns = tuple(structural(j) for j in range(1, sp.p + 1)) + tuple(
        slack(i) for i in negative
    )
    total = [0] * len(rows[0])
    for i in negative:
        total = [x + y for x, y in zip(total, rows[i])]
    rows.append(tuple(-x for x in total))
    return Dictionary.from_numerators(tuple(basis), columns, tuple(rows), den, mode)


def traditional_step(
    d: Dictionary,
    use_trick: bool = False,
    tie_break: TieBreak = TieBreak.SMALLEST_LABEL,
) -> Decision:
    """Decide the next auxiliary pivot (or a stop), priced by the auxiliary row.

    The method runs until no artificial is basic; the auxiliary value
    alone is not enough, because a degenerate artificial can sit at zero
    while the row still prices columns.  Entering is the most negative
    auxiliary-row entry (ties to the smallest label); leaving is the
    classical minimum ratio over positive column entries.  The violation
    total is the basic artificials' total, minus the auxiliary row's value.
    """
    mode = d.mode
    row = d.row(d.m + 1)
    phi = d.value(-row[0])
    art_rows = artificial_rows(d)
    if not art_rows:
        return Decision(None, None, None, Status.FEASIBLE, phi)

    if use_trick:
        for r in art_rows:
            if mode.sign(d.column(0)[r]) == 0:
                m = conjugate_column(d, r)
                return Decision(m, r, mode.zero, None, phi, via_conjugate=True)

    entering = select_entering(row[1:], d.nonbasis, mode)
    if entering is None:
        if mode.sign(row[0]) < 0:
            return Decision(None, None, None, Status.INFEASIBLE, phi)
        # Auxiliary optimum at zero with artificials stuck at value zero:
        # swap each out through any nonzero entry of its row (the
        # conjugate slack guarantees one exists).
        r = art_rows[0]
        row = d.row(r)
        nonzero = [j for j in range(1, d.n + 1) if mode.sign(row[j]) != 0]
        if not nonzero:
            raise RuntimeError(f"artificial row {r} is identically zero")
        best = min(nonzero, key=d.column_label)
        return Decision(best, r, mode.zero, None, phi)

    best_row, best_ratio = select_leaving(d, entering, tie_break)
    if best_row is None:
        # The auxiliary objective is bounded above by zero, so in exact mode
        # a fully nonpositive column cannot occur.
        raise NoEligibleRow(f"auxiliary column {entering} has no positive entry")
    return Decision(entering, best_row, best_ratio, None, phi)


def run_traditional_phase1(
    d: Dictionary,
    config: Optional[SolveConfig] = None,
) -> tuple[Dictionary, Status, Trace]:
    """Iterate traditional_step until the basis is free of artificials.

    Returns the last dictionary as it stands, in its start's row format,
    the auxiliary row still riding as row m + 1.  On FEASIBLE its basis rows
    are the plain dictionary over structural and slack labels with the
    original objective row intact; on INFEASIBLE they are the terminal
    auxiliary interior (artificials still basic, their total being the
    minimal violation).
    """
    cfg = config or SolveConfig()

    def pivot(d: Dictionary, decision: Decision) -> Dictionary:
        aux = AuxiliaryDictionary(d)
        move = aux.conjugate_pivot if decision.via_conjugate else aux.pivot
        return move(decision.leaving_row, decision.entering_column)

    return drive(
        "traditional_phase1",
        d,
        lambda d: traditional_step(d, cfg.use_trick, cfg.tie_break),
        cfg,
        pivot=pivot,
    )
