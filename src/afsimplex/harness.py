"""Two-phase driver: solve a standard problem end to end, or race the
artificial-free and artificial-variable methods against each other."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dictionary import initial_dictionary
from .model import StandardProblem
from .numeric import Value
from .phase1 import InvariantMonitor, infeasible_rows, run_phase1
from .phase2 import improving_ray, phase2_step, run_phase2
from .trace import SolveConfig, Status, Trace
from .traditional import artificial_rows, build_auxiliary, run_traditional_phase1


class Method(Enum):
    ARTIFICIAL_FREE = "af"
    TRADITIONAL = "trad"


class VerdictMismatch(RuntimeError):
    """The two phase-1 methods finished and disagreed on feasibility; by
    construction this can only come from a bug, so compare() refuses to
    report it."""


_SAFEGUARDS = (Status.CYCLE_DETECTED, Status.ITERATION_LIMIT)


@dataclass(frozen=True)
class Certificates:
    infeasible_rows: Optional[tuple[str, ...]] = None
    ray: Optional[dict[str, Value]] = None


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    solution: dict[str, Value]  # structural values; empty unless optimal
    objective: Optional[Value]  # in the original sense; None unless optimal
    phase1: Trace
    phase2: Optional[Trace]
    certificates: Certificates


@dataclass(frozen=True)
class ComparisonReport:
    verdict: Status
    af: Trace  # each method's phase-1 trace
    traditional: Trace
    corners_equal: bool
    af_pivots_le_traditional: bool


def _phase1(sp: StandardProblem, method: Method, cfg: SolveConfig, monitor=None) -> tuple:
    """Phase 1 from the method's own start: (dictionary, status, trace)."""
    if method is Method.ARTIFICIAL_FREE:
        return run_phase1(initial_dictionary(sp), cfg, monitor)
    if monitor is not None:
        raise ValueError(f"the monitor watches only the af phase 1, not {method.value}")
    return run_traditional_phase1(build_auxiliary(sp), cfg)


def solve(
    sp: StandardProblem,
    method: Method = Method.ARTIFICIAL_FREE,
    config: Optional[SolveConfig] = None,
    monitor: Optional[InvariantMonitor] = None,
) -> SolveOutcome:
    """Phase 1 with the chosen method, then phase 2 on success.

    The outcome status is OPTIMAL, INFEASIBLE or UNBOUNDED, or a
    safeguard status (CYCLE_DETECTED / ITERATION_LIMIT) if a run was cut
    short.  Optimal outcomes carry the solution and the objective value
    in the sense of the original problem; unbounded outcomes carry an
    improving feasible ray over the structural variables.  Infeasible
    outcomes name the rows still violated at the stop (af) or the rows
    whose artificial stays positive (trad).  Those rows alone need not
    be infeasible, so they do not certify emptiness; Farkas multipliers
    would.  The monitor watches only the af phase 1; passing one with
    another method raises ValueError.
    """
    cfg = config or SolveConfig()
    d1, s1, trace1 = _phase1(sp, method, cfg, monitor)

    certificates = Certificates()
    solution: dict[str, Value] = {}
    objective: Optional[Value] = None
    phase2_trace: Optional[Trace] = None

    if s1 is Status.FEASIBLE:
        d2, s2, phase2_trace = run_phase2(d1, cfg)
        status = s2
        if s2 is Status.OPTIMAL:
            solution = dict(zip(sp.variables, d2.corner()))
            value = d2.objective_value
            objective = -value if sp.negated_objective else value
        elif s2 is Status.UNBOUNDED:
            decision = phase2_step(d2, cfg.tie_break)
            assert decision.status is Status.UNBOUNDED
            ray = improving_ray(d2, decision.entering_column)
            certificates = Certificates(ray=dict(zip(sp.variables, ray)))
    elif s1 is Status.INFEASIBLE:
        status = Status.INFEASIBLE
        if method is Method.ARTIFICIAL_FREE:
            rows = infeasible_rows(d1)
        else:
            # The artificials stuck positive.  In exact mode the auxiliary
            # dictionary stays primal feasible, so no other row is
            # negative.  In float mode at --eps 0.1 a basic structural can
            # end negative: x2 at -0.75 on generate_lp(88, 5, 3) and x4 at
            # -0.27 on generate_lp(106, 5, 6), both INFEASIBLE_BIASED.
            rhs = d1.column(0)
            rows = frozenset(i for i in artificial_rows(d1) if d1.mode.sign(rhs[i]) > 0)
        names = sorted(d1.row_label(i).name for i in rows)
        certificates = Certificates(infeasible_rows=tuple(names))
    else:
        status = s1  # safeguard stop

    return SolveOutcome(
        status=status,
        solution=solution,
        objective=objective,
        phase1=trace1,
        phase2=phase2_trace,
        certificates=certificates,
    )


def compare(
    sp: StandardProblem, config: Optional[SolveConfig] = None
) -> ComparisonReport:
    """Run both phase-1 methods with identical entering rule and tie-break.

    Feasibility verdicts must agree (VerdictMismatch otherwise); pivot
    counts, degenerate counts and deduplicated corner walks are reported
    side by side.  A safeguard stop on either side is the report's
    verdict, the artificial-free one's if both stopped.
    """
    cfg = config or SolveConfig()
    _, s_af, af = _phase1(sp, Method.ARTIFICIAL_FREE, cfg)
    _, s_tr, tr = _phase1(sp, Method.TRADITIONAL, cfg)
    verdict = s_tr if s_tr in _SAFEGUARDS and s_af not in _SAFEGUARDS else s_af
    if verdict not in _SAFEGUARDS and s_af is not s_tr:
        raise VerdictMismatch(f"artificial-free says {s_af}, traditional says {s_tr}")
    return ComparisonReport(
        verdict=verdict,
        af=af,
        traditional=tr,
        corners_equal=af.deduplicated_corners() == tr.deduplicated_corners(),
        af_pivots_le_traditional=af.pivots <= tr.pivots,
    )
