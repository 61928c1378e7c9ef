"""Artificial-free simplex toolkit.

A dictionary-form LP solver with two interchangeable phase 1 drivers:
a traditional artificial-variable auxiliary problem and an
artificial-free variant that prices the infeasible rows directly.
Everything runs on exact rationals by default.
"""

from .dictionary import (
    Dictionary,
    Label,
    LabelKind,
    ZeroPivot,
    artificial,
    initial_dictionary,
    slack,
    structural,
)
from .dual import dual_phase1_step, run_dual_phase1
from .generate import Shape, generate_lp
from .harness import (
    Certificates,
    ComparisonReport,
    Method,
    SolveOutcome,
    VerdictMismatch,
    compare,
    solve,
)
from .jsonout import emit_oracle_json, emit_outcome_json, emit_report_json
from .lpformat import ParseError, format_lp, parse_lp
from .model import (
    Constraint,
    EmptyProblem,
    GeneralProblem,
    Relation,
    Sense,
    StandardProblem,
    standardize,
)
from .numeric import (
    EXACT,
    ExactMode,
    FloatMode,
    NumericMode,
)
from .oracle import OracleResult, TooLarge, enumerate_vertices
from .phase1 import (
    InvariantMonitor,
    infeasibility_sum,
    infeasible_rows,
    phase1_step,
    run_phase1,
)
from .phase2 import NotPrimalFeasible, improving_ray, phase2_step, run_phase2
from .trace import PivotRecord, SolveConfig, Status, TieBreak, Trace
from .traditional import (
    AuxiliaryDictionary,
    build_auxiliary,
    run_traditional_phase1,
    traditional_step,
)

__version__ = "0.1.0"

__all__ = [
    "Certificates",
    "ComparisonReport",
    "Constraint",
    "Dictionary",
    "EXACT",
    "EmptyProblem",
    "ExactMode",
    "FloatMode",
    "GeneralProblem",
    "InvariantMonitor",
    "Label",
    "LabelKind",
    "Method",
    "NotPrimalFeasible",
    "NumericMode",
    "OracleResult",
    "ParseError",
    "PivotRecord",
    "Relation",
    "Sense",
    "Shape",
    "SolveConfig",
    "SolveOutcome",
    "StandardProblem",
    "Status",
    "TieBreak",
    "TooLarge",
    "Trace",
    "VerdictMismatch",
    "ZeroPivot",
    "AuxiliaryDictionary",
    "artificial",
    "build_auxiliary",
    "compare",
    "dual_phase1_step",
    "emit_oracle_json",
    "emit_outcome_json",
    "emit_report_json",
    "enumerate_vertices",
    "format_lp",
    "generate_lp",
    "improving_ray",
    "infeasibility_sum",
    "infeasible_rows",
    "initial_dictionary",
    "parse_lp",
    "phase1_step",
    "phase2_step",
    "run_dual_phase1",
    "run_phase1",
    "run_phase2",
    "run_traditional_phase1",
    "slack",
    "solve",
    "standardize",
    "structural",
    "traditional_step",
    "__version__",
]
