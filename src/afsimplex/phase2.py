"""Phase 2: plain maximizing simplex on a primal-feasible dictionary."""

from __future__ import annotations

from typing import Optional

from .dictionary import Dictionary, LabelKind
from .numeric import Value
from .phase1 import infeasible_rows, select_entering, select_leaving
from .trace import Decision, SolveConfig, Status, TieBreak, Trace, drive


class NotPrimalFeasible(ValueError):
    """Phase 2 was handed a dictionary with a negative right-hand side."""


def phase2_step(
    d: Dictionary, tie_break: TieBreak = TieBreak.SMALLEST_LABEL
) -> Decision:
    """One Dantzig decision: most negative objective entry enters (ties to
    the smallest label); the classical minimum ratio over positive column
    entries leaves.  A negative column with no positive entry means the
    objective is unbounded along it.  The dictionary is primal feasible,
    so every decision carries a violation total of zero."""
    rows = infeasible_rows(d)
    if rows:
        i = min(rows)
        raise NotPrimalFeasible(f"row {i} has rhs {d.rhs(i)!r}")
    entering = select_entering(d.row(0)[1:], d.nonbasis, d.mode)
    if entering is None:
        return Decision(None, None, None, Status.OPTIMAL, d.mode.zero)
    best_row, best_ratio = select_leaving(d, entering, tie_break)
    if best_row is None:
        return Decision(entering, None, None, Status.UNBOUNDED, d.mode.zero)
    return Decision(entering, best_row, best_ratio, None, d.mode.zero)


def improving_ray(d: Dictionary, column: int) -> tuple[Value, ...]:
    """Structural direction along which the objective grows without bound,
    in `corner()` order.

    Increasing the column's nonbasic variable by t moves each basic
    variable by -d_i,column * t; projecting onto structural labels gives
    a ray that satisfies every original row with slack to spare.
    """
    ray = d.structural_column(column, negate=True)
    target = d.column_label(column)
    if target.kind is LabelKind.STRUCTURAL:
        ray[target.index - 1] = d.mode.coerce(1)
    return tuple(ray)


def run_phase2(
    d: Dictionary,
    config: Optional[SolveConfig] = None,
) -> tuple[Dictionary, Status, Trace]:
    """Iterate phase2_step to OPTIMAL or UNBOUNDED (or a safeguard stop)."""
    cfg = config or SolveConfig()
    return drive(
        "phase2",
        d,
        lambda d: phase2_step(d, cfg.tie_break),
        cfg,
    )
