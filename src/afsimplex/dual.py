"""Dual phase 1: reach a nonnegative objective row without artificials.

The decision rule is, by definition, the primal rule applied to the
negative transpose: negative objective-row entries play the role of
infeasible rows, their rowwise sum prices the basis rows, and the pivot
found there maps back with row and column swapped.  The pivot transform
commutes with the negative transpose, so iterating this mirror step on D
reproduces, position for position, the primal run on the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dictionary import Dictionary
from .numeric import Value
from .phase1 import Phase1Verdict, phase1_step
from .trace import SolveConfig, Status, TieBreak, Trace, drive


class DualVerdict(Enum):
    PIVOT = "pivot"
    ALREADY_DUAL_FEASIBLE = "already_dual_feasible"
    DUAL_INFEASIBLE = "dual_infeasible"


@dataclass(frozen=True)
class DualPhase1Decision:
    infeasible_columns: frozenset[int]  # columns with negative objective entry
    w_prime: tuple[Value, ...]  # rowwise sums over those columns
    entering_column: Optional[int]
    leaving_row: Optional[int]
    ratio: Optional[Value]
    verdict: DualVerdict


def _negative_columns(d: Dictionary) -> list[int]:
    negative = d.mode.is_negative
    return [j for j in range(1, d.n + 1) if negative(d.num[0][j])]


def dual_infeasibility_sum(d: Dictionary) -> Value:
    """Sum of -d_0j over the negative objective-row entries."""
    columns = _negative_columns(d)
    if not columns:
        return d.mode.zero
    return d.value(-sum(d.num[0][j] for j in columns))


def dual_phase1_step(
    d: Dictionary, tie_break: TieBreak = TieBreak.SMALLEST_LABEL
) -> DualPhase1Decision:
    """One mirrored decision; performs no pivot itself."""
    negative = _negative_columns(d)
    columns = frozenset(negative)
    if negative:
        w_prime = tuple(
            d.value(sum(d.num[i][k] for k in negative)) for i in range(1, d.m + 1)
        )
    else:
        w_prime = (d.mode.zero,) * d.m
    mirror = phase1_step(d.negative_transpose(), tie_break)
    if mirror.verdict is Phase1Verdict.ALREADY_FEASIBLE:
        verdict = DualVerdict.ALREADY_DUAL_FEASIBLE
        return DualPhase1Decision(columns, w_prime, None, None, None, verdict)
    if mirror.verdict is Phase1Verdict.INFEASIBLE:
        verdict = DualVerdict.DUAL_INFEASIBLE
        return DualPhase1Decision(columns, w_prime, None, None, None, verdict)
    # Transpose rows are this dictionary's columns and vice versa.
    return DualPhase1Decision(
        columns,
        w_prime,
        entering_column=mirror.leaving_row,
        leaving_row=mirror.entering_column,
        ratio=mirror.ratio,
        verdict=DualVerdict.PIVOT,
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
        dual_infeasibility_sum,
        {
            DualVerdict.ALREADY_DUAL_FEASIBLE: Status.DUAL_FEASIBLE,
            DualVerdict.DUAL_INFEASIBLE: Status.DUAL_INFEASIBLE,
        },
        cfg,
        pricing=lambda d, decision: decision.w_prime,
    )
