"""Run records: statuses, per-pivot records, traces and solver options,
and the one pivot loop every phase runs through."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Callable, Optional

from .dictionary import Label
from .numeric import ExactMode, Value


class Status(str, Enum):
    FEASIBLE = "feasible"
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    DUAL_FEASIBLE = "dual_feasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    CYCLE_DETECTED = "cycle_detected"
    ITERATION_LIMIT = "iteration_limit"


class TieBreak(Enum):
    """Leaving-row tie rule applied at equal minimum ratio."""

    SMALLEST_LABEL = "smallest-label"
    SMALLEST_ABS_PIVOT = "smallest-abs-pivot"
    LARGEST_ABS_PIVOT = "largest-abs-pivot"


@dataclass(frozen=True)
class SolveConfig:
    tie_break: TieBreak = TieBreak.SMALLEST_LABEL
    max_iterations: Optional[int] = None  # None -> 50 * (rows + columns)
    use_trick: bool = False  # conjugate-slack shortcut in the artificial method

    def iteration_budget(self, rows: int, columns: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 50 * (rows + columns)


@dataclass(frozen=True)
class PivotRecord:
    entering: Label
    leaving: Label
    ratio: Value
    degenerate: bool
    infeasibility_after: Value
    corner: tuple[Value, ...]
    via_conjugate: bool = False


@dataclass(frozen=True)
class Trace:
    method: str
    status: Status
    initial_corner: tuple[Value, ...]
    initial_infeasibility: Value
    records: tuple[PivotRecord, ...]

    @property
    def pivots(self) -> int:
        return len(self.records)

    @property
    def degenerate_pivots(self) -> int:
        return sum(1 for rec in self.records if rec.degenerate)

    @property
    def corners(self) -> tuple[tuple[Value, ...], ...]:
        """Corner walk: the starting corner, then one corner per pivot."""
        return (self.initial_corner,) + tuple(rec.corner for rec in self.records)

    def deduplicated_corners(self) -> tuple[tuple[Value, ...], ...]:
        """Corner walk with consecutive repeats (degenerate dwell) collapsed."""
        return tuple(corner for corner, _ in groupby(self.corners))


@dataclass(frozen=True)
class Decision:
    """What a step decided.  `status` is None exactly when the pivot on
    (leaving_row, entering_column) with step length `ratio` is due; any
    other status ends the run, and an UNBOUNDED stop keeps its entering
    column for the ray.  `infeasibility` is the violation total of the
    state the step priced, read from the row it priced with (zero in
    phase 2)."""

    entering_column: Optional[int]
    leaving_row: Optional[int]
    ratio: Optional[Value]
    status: Optional[Status]
    infeasibility: Value
    via_conjugate: bool = False


def pivot_on(d, decision: Decision):
    """The decision's pivot, performed on a plain dictionary."""
    return d.pivot(decision.leaving_row, decision.entering_column)


def drive(
    method: str,
    state,
    step: Callable,
    config: SolveConfig,
    pivot: Callable = pivot_on,
    observe: Optional[Callable] = None,
    view: Callable = lambda state: state,
) -> tuple:
    """The one pivot loop: pivot from `state` until a stop, recording a trace.

    `step(state)` returns a Decision; one with a status ends the run with
    it, any other is performed by `pivot(state, decision)`.  The trace's
    violation totals are the decisions': the first step's is the initial
    one, and each record's is that of the step on the state after its
    pivot, so every state is priced once.  `observe(before, decision,
    after)` sees every pivot, and `view(state)` is the plain dictionary
    behind the state.  The run also stops with ITERATION_LIMIT when the
    budget is spent and, in exact mode, with CYCLE_DETECTED when a basis
    repeats.  A pivot is degenerate when its ratio classifies as zero.
    """
    d = view(state)
    budget = config.iteration_budget(d.m, d.n)
    seen = {d.signature()} if isinstance(d.mode, ExactMode) else None
    records: list[PivotRecord] = []
    initial_corner = d.corner()
    decision = step(state)
    initial = decision.infeasibility

    while True:
        status = decision.status
        if status is not None:
            break
        if len(records) >= budget:
            status = Status.ITERATION_LIMIT
            break
        nxt = pivot(state, decision)
        if observe is not None:
            observe(state, decision, nxt)
        after = view(nxt)
        following = step(nxt)
        records.append(
            PivotRecord(
                entering=d.column_label(decision.entering_column),
                leaving=d.row_label(decision.leaving_row),
                ratio=decision.ratio,
                degenerate=d.mode.sign(decision.ratio) == 0,
                infeasibility_after=following.infeasibility,
                corner=after.corner(),
                via_conjugate=decision.via_conjugate,
            )
        )
        state, d, decision = nxt, after, following
        if seen is not None:
            sig = d.signature()
            if sig in seen:
                status = Status.CYCLE_DETECTED
                break
            seen.add(sig)

    return state, status, Trace(method, status, initial_corner, initial, tuple(records))
