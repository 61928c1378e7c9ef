"""Dual phase 1: reach a nonnegative objective row without artificials.

The decision rule is, by definition, the primal rule applied to the
negative transpose: negative objective-row entries play the role of
infeasible rows, their rowwise sum prices the basis rows, and the pivot
found there maps back with row and column swapped.  The pivot transform
commutes with the negative transpose, so iterating this mirror step on D
reproduces, position for position, the primal run on the transpose.  The
violation total is the mirror's too: the sum of -d_0j over the negative
objective-row entries, read from the row sum that priced the step.
"""

from __future__ import annotations

from typing import Optional

from .dictionary import Dictionary
from .phase1 import phase1_step
from .trace import Decision, SolveConfig, Status, TieBreak, Trace, drive

_MIRRORED = {
    Status.FEASIBLE: Status.DUAL_FEASIBLE,
    Status.INFEASIBLE: Status.DUAL_INFEASIBLE,
}


def dual_phase1_step(d: Dictionary, tie_break: TieBreak = TieBreak.SMALLEST_LABEL) -> Decision:
    """The phase-1 decision on the negative transpose, mapped back.

    Transpose rows are this dictionary's columns and vice versa.
    Performs no pivot itself.
    """
    mirror = phase1_step(d.negative_transpose(), tie_break)
    return Decision(
        entering_column=mirror.leaving_row,
        leaving_row=mirror.entering_column,
        ratio=mirror.ratio,
        status=_MIRRORED.get(mirror.status),
        infeasibility=mirror.infeasibility,
    )


def run_dual_phase1(
    d: Dictionary,
    config: Optional[SolveConfig] = None,
) -> tuple[Dictionary, Status, Trace]:
    """Iterate dual_phase1_step to DUAL_FEASIBLE / DUAL_INFEASIBLE."""
    cfg = config or SolveConfig()
    return drive(
        "dual_phase1",
        d,
        lambda d: dual_phase1_step(d, cfg.tie_break),
        cfg,
    )
