"""Deterministic JSON views of solver results.

Every number is emitted as an exact {"num": ..., "den": ...} pair so that
output bytes are stable across runs and platforms.  Float-mode values are
converted through their exact binary expansion.

The text is written straight from the records: one template per record
kind (a pair, a named value, a pivot entry, a corner) with constant keys,
and every fragment of a document appended to one list that is joined
once.  Each trace corner is formatted once, at the indent of `corners`,
and its pivot entry reuses that text two spaces deeper.  The bytes are
those of `json.dumps(payload, indent=2) + "\n"` for the payload the
records describe.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _string

from .harness import ComparisonReport, SolveOutcome
from .numeric import Value
from .oracle import OracleResult
from .trace import Trace

_BOOL = ("false", "true")


def _rational(x: Value, indent: str) -> str:
    """x as a {"num", "den"} object whose closing brace sits at `indent`."""
    num, den = x.as_integer_ratio()
    return f'{{\n{indent}  "num": {num},\n{indent}  "den": {den}\n{indent}}}'


def _corner(values, indent: str) -> str:
    """values as an array of [num, den] arrays whose closing bracket sits at `indent`."""
    if not values:
        return "[]"
    pair, item = indent + "  ", indent + "    "
    mid, sep = f",\n{item}", f"\n{pair}],\n{pair}[\n{item}"
    body = sep.join([f"{num}{mid}{den}" for num, den in [v.as_integer_ratio() for v in values]])
    return f"[\n{pair}[\n{item}{body}\n{pair}]\n{indent}]"


def _array(out: list[str], items, indent: str) -> None:
    """Append texts already written at `indent + "  "` as an array closing at `indent`."""
    sep = f",\n{indent}  "
    out.append(f"[\n{indent}  ")
    for text in items:
        out.append(text)
        out.append(sep)
    out[-1] = f"\n{indent}]" if items else "[]"


def _named(name: str, value: Value, indent: str) -> str:
    """A {"var", "num", "den"} object whose closing brace sits at `indent`."""
    num, den = value.as_integer_ratio()
    key = indent + "  "
    return f'{{\n{key}"var": {_string(name)},\n{key}"num": {num},\n{key}"den": {den}\n{indent}}}'


def _trace(out: list[str], trace: Trace) -> None:
    """Append a solve trace as the value of a top-level key."""
    corners = [_corner(c, "      ") for c in trace.corners]
    out.append(
        f'{{\n    "method": {_string(trace.method)},\n'
        f'    "status": {_string(trace.status.value)},\n'
        f'    "pivots": {trace.pivots},\n'
        f'    "degenerate_pivots": {trace.degenerate_pivots},\n    "corners": '
    )
    _array(out, corners, "    ")
    out.append(',\n    "entries": ')
    if not trace.records:
        out.append("[]\n  }")
        return
    out.append("[\n")
    for iteration, (rec, corner) in enumerate(zip(trace.records, corners[1:]), start=1):
        ratio_num, ratio_den = rec.ratio.as_integer_ratio()
        sum_num, sum_den = rec.infeasibility_after.as_integer_ratio()
        out.append(
            f'      {{\n        "iter": {iteration},\n'
            f'        "entering": {_string(rec.entering.name)},\n'
            f'        "leaving": {_string(rec.leaving.name)},\n'
            f'        "ratio": {{\n          "num": {ratio_num},\n'
            f'          "den": {ratio_den}\n        }},\n'
            f'        "degenerate": {_BOOL[rec.degenerate]},\n'
            f'        "infeasibility_sum": {{\n          "num": {sum_num},\n'
            f'          "den": {sum_den}\n        }},\n        "corner": '
        )
        out.append(corner.replace("\n", "\n  "))
        out.append("\n      },\n")
    out[-1] = "\n      }\n    ]\n  }"


def _written(write, record) -> str:
    """The document `write(out, record)` appends, with its trailing newline."""
    # Exact values may pass Python's int-to-string digit limit; lift it for this call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        out = ["{\n  "]
        write(out, record)
        out.append("\n}\n")
        return "".join(out)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _outcome(out: list[str], outcome: SolveOutcome) -> None:
    out.append(f'"status": {_string(outcome.status.value)}')
    if outcome.objective is not None:
        out.append(',\n  "objective": ' + _rational(outcome.objective, "  "))
    if outcome.solution:
        out.append(',\n  "solution": ')
        _array(out, [_named(k, v, "    ") for k, v in outcome.solution.items()], "  ")
    rows, ray = outcome.certificates.infeasible_rows, outcome.certificates.ray
    out.append(',\n  "certificates": {')
    if rows is not None:
        out.append('\n    "infeasible_rows": ')
        _array(out, [_string(name) for name in rows], "    ")
    if ray is not None:
        out.append(',\n    "ray": ' if rows is not None else '\n    "ray": ')
        _array(out, [_named(k, v, "      ") for k, v in ray.items()], "    ")
    out.append("}" if rows is None and ray is None else "\n  }")
    out.append(',\n  "phase1": ')
    _trace(out, outcome.phase1)
    if outcome.phase2 is not None:
        out.append(',\n  "phase2": ')
        _trace(out, outcome.phase2)


def emit_outcome_json(outcome: SolveOutcome) -> str:
    return _written(_outcome, outcome)


def _report(out: list[str], report: ComparisonReport) -> None:
    out.append(f'"verdict": {_string(report.verdict.value)}')
    for key, trace in (("artificial_free", report.af), ("traditional", report.traditional)):
        out.append(
            f',\n  "{key}": {{\n    "verdict": {_string(trace.status.value)},\n'
            f'    "pivots": {trace.pivots},\n'
            f'    "degenerate_pivots": {trace.degenerate_pivots},\n    "corners": '
        )
        _array(out, [_corner(c, "      ") for c in trace.deduplicated_corners()], "    ")
        out.append("\n  }")
    out.append(
        f',\n  "corners_equal": {_BOOL[report.corners_equal]},\n'
        f'  "af_pivots_le_traditional": {_BOOL[report.af_pivots_le_traditional]}'
    )


def emit_report_json(report: ComparisonReport) -> str:
    return _written(_report, report)


def _oracle(out: list[str], result: OracleResult) -> None:
    out.append(
        f'"feasible": {_BOOL[result.feasible]},\n  "unbounded": {_BOOL[result.unbounded]}'
    )
    if result.optimal_value is not None:
        out.append(',\n  "optimal_value": ' + _rational(result.optimal_value, "  "))
    if result.optimal_vertex is not None:
        out.append(',\n  "optimal_vertex": ' + _corner(result.optimal_vertex, "  "))
    out.append(',\n  "vertices": ')
    _array(out, [_corner(v, "    ") for v in result.vertices], "  ")


def emit_oracle_json(result: OracleResult) -> str:
    return _written(_oracle, result)
