"""Deterministic JSON views of solver results.

Every number is emitted as an exact {"num": ..., "den": ...} pair so that
output bytes are stable across runs and platforms.  Float-mode values are
converted through their exact binary expansion.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any

from .harness import ComparisonReport, SolveOutcome
from .numeric import Value
from .oracle import OracleResult
from .trace import Trace


def _rational(x: Value) -> dict[str, int]:
    frac = Fraction(x) if not isinstance(x, Fraction) else x
    return {"num": frac.numerator, "den": frac.denominator}


def _corner(values) -> list[list[int]]:
    return [[f.numerator, f.denominator] for f in (Fraction(v) for v in values)]


def _trace_dict(trace: Trace) -> dict[str, Any]:
    entries = []
    for rec in trace.records:
        entries.append(
            {
                "iter": rec.iteration,
                "entering": rec.entering.name,
                "leaving": rec.leaving.name,
                "ratio": _rational(rec.ratio),
                "degenerate": rec.degenerate,
                "infeasibility_sum": _rational(rec.infeasibility_after),
                "corner": _corner(rec.corner),
            }
        )
    return {
        "method": trace.method,
        "status": trace.status.value,
        "pivots": trace.pivots,
        "degenerate_pivots": trace.degenerate_pivots,
        "corners": [_corner(c) for c in trace.corners],
        "entries": entries,
    }


def _dump(payload: dict[str, Any]) -> str:
    # An exact value may have more digits than Python's int-to-string limit
    # allows; the limit is lifted for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def outcome_to_dict(outcome: SolveOutcome) -> dict[str, Any]:
    payload: dict[str, Any] = {"status": outcome.status.value}
    if outcome.objective is not None:
        payload["objective"] = _rational(outcome.objective)
    if outcome.solution:
        payload["solution"] = [
            {"var": name, **_rational(value)}
            for name, value in outcome.solution.items()
        ]
    certs = outcome.certificates
    certificates: dict[str, Any] = {}
    if certs.infeasible_rows is not None:
        certificates["infeasible_rows"] = list(certs.infeasible_rows)
    if certs.ray is not None:
        certificates["ray"] = [
            {"var": name, **_rational(value)} for name, value in certs.ray.items()
        ]
    payload["certificates"] = certificates
    payload["phase1"] = _trace_dict(outcome.phase1)
    if outcome.phase2 is not None:
        payload["phase2"] = _trace_dict(outcome.phase2)
    return payload


def emit_outcome_json(outcome: SolveOutcome) -> str:
    return _dump(outcome_to_dict(outcome))


def report_to_dict(report: ComparisonReport) -> dict[str, Any]:
    def summary(s) -> dict[str, Any]:
        return {
            "verdict": s.verdict.value,
            "pivots": s.pivots,
            "degenerate_pivots": s.degenerate_pivots,
            "corners": [_corner(c) for c in s.corners],
        }

    return {
        "verdict": report.verdict.value,
        "artificial_free": summary(report.af),
        "traditional": summary(report.traditional),
        "corners_equal": report.corners_equal,
        "af_pivots_le_traditional": report.af_pivots_le_traditional,
    }


def emit_report_json(report: ComparisonReport) -> str:
    return _dump(report_to_dict(report))


def oracle_to_dict(result: OracleResult) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "feasible": result.feasible,
        "unbounded": result.unbounded,
    }
    if result.optimal_value is not None:
        payload["optimal_value"] = _rational(result.optimal_value)
    if result.optimal_vertex is not None:
        payload["optimal_vertex"] = _corner(result.optimal_vertex)
    payload["vertices"] = [_corner(v) for v in result.vertices]
    return payload


def emit_oracle_json(result: OracleResult) -> str:
    return _dump(oracle_to_dict(result))


def write_json(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
