"""Run records: statuses, per-pivot records, traces and solver options."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .dictionary import Label
from .numeric import Value


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
    detect_cycles: bool = True  # effective in exact mode only
    use_trick: bool = False  # conjugate-slack shortcut in the artificial method

    def iteration_budget(self, rows: int, columns: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 50 * (rows + columns)


@dataclass(frozen=True)
class PivotRecord:
    iteration: int
    entering: Label
    leaving: Label
    ratio: Value
    degenerate: bool
    infeasibility_before: Value
    infeasibility_after: Value
    corner: tuple[Value, ...]
    pricing: Optional[tuple[Value, ...]] = None
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
        out: list[tuple[Value, ...]] = []
        for corner in self.corners:
            if not out or out[-1] != corner:
                out.append(corner)
        return tuple(out)
