"""Deterministic JSON views of solver results.

Every number is emitted as an exact {"num": ..., "den": ...} pair so that
output bytes are stable across runs and platforms.  Float-mode values are
converted through their exact binary expansion.

The text is written here, not by `json.dumps`: two-space indent, `",\n"`
between items, `": "` after keys, keys in build order, ASCII-only string
escapes and one trailing newline.  These are the bytes that
`json.dumps(payload, indent=2) + "\n"` gives, with every `(num, den)`
tuple written as a two-item array.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from .harness import ComparisonReport, SolveOutcome
from .numeric import Value
from .oracle import OracleResult
from .trace import Trace


def _rational(x: Value) -> dict[str, int]:
    num, den = x.as_integer_ratio()
    return {"num": num, "den": den}


def _corner(values) -> list[tuple[int, int]]:
    return [v.as_integer_ratio() for v in values]


def _trace_dict(trace: Trace) -> dict[str, Any]:
    # The walk is the starting corner and then each pivot's corner, so one
    # list of pairs per corner serves both `corners` and its entry.
    corners = [_corner(c) for c in trace.corners]
    entries = [
        {
            "iter": iteration,
            "entering": rec.entering.name,
            "leaving": rec.leaving.name,
            "ratio": _rational(rec.ratio),
            "degenerate": rec.degenerate,
            "infeasibility_sum": _rational(rec.infeasibility_after),
            "corner": corner,
        }
        for iteration, (rec, corner) in enumerate(zip(trace.records, corners[1:]), start=1)
    ]
    return {
        "method": trace.method,
        "status": trace.status.value,
        "pivots": trace.pivots,
        "degenerate_pivots": trace.degenerate_pivots,
        "corners": corners,
        "entries": entries,
    }


def _encode(obj: Any, indent: str) -> str:
    """`obj` as indent-2 JSON whose closing bracket sits at `indent`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, tuple):
        num, den = obj
        return f"[\n{inner}{num},\n{inner}{den}\n{indent}]"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all([type(v) is tuple for v in obj]):
            # A corner: every item is a (num, den) pair.
            head, mid, tail = f"{inner}[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
            items = ",\n".join([f"{head}{num}{mid}{den}{tail}" for num, den in obj])
            return f"[\n{items}\n{indent}]"
        items = ",\n".join([inner + _encode(v, inner) for v in obj])
        return f"[\n{items}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            [f"{inner}{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in obj.items()]
        )
        return f"{{\n{items}\n{indent}}}"
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _dump(payload: Any) -> str:
    # An exact value may have more digits than Python's int-to-string limit
    # allows; the limit is lifted for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _encode(payload, "") + "\n"
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
    def summary(trace: Trace) -> dict[str, Any]:
        return {
            "verdict": trace.status.value,
            "pivots": trace.pivots,
            "degenerate_pivots": trace.degenerate_pivots,
            "corners": [_corner(c) for c in trace.deduplicated_corners()],
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
