"""JSON emission: schema shape, exact rationals, byte determinism."""

import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.harness import Certificates, ComparisonReport, Method, SolveOutcome, compare, solve
from afsimplex.jsonout import emit_oracle_json, emit_outcome_json, emit_report_json
from afsimplex.numeric import FloatMode, Value
from afsimplex.oracle import OracleResult
from afsimplex.trace import PivotRecord, SolveConfig, Status, Trace

from conftest import WALK_TEXT, problem_from


def test_outcome_bytes_are_deterministic(walk_sp):
    out = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert emit_outcome_json(out) == emit_outcome_json(out)
    again = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert emit_outcome_json(again) == emit_outcome_json(out)


def test_outcome_schema_optimal():
    sp = problem_from("max: 2 x1;\nc1: x1 <= 3/2;\n")
    text = emit_outcome_json(solve(sp, Method.ARTIFICIAL_FREE, SolveConfig()))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["status"] == "optimal"
    assert doc["objective"] == {"num": 3, "den": 1}
    assert doc["solution"] == [{"var": "x1", "num": 3, "den": 2}]
    assert doc["certificates"] == {}
    assert doc["phase1"]["entries"] == []
    assert doc["phase2"]["pivots"] == 1


def test_outcome_schema_walk_unbounded(walk_sp):
    doc = json.loads(
        emit_outcome_json(
            solve(
                walk_sp,
                Method.ARTIFICIAL_FREE,
                SolveConfig(tie_break=af.TieBreak.SMALLEST_ABS_PIVOT),
            )
        )
    )
    assert doc["status"] == "unbounded"
    assert "objective" not in doc
    assert "solution" not in doc
    trace = doc["phase1"]
    assert trace["pivots"] == 3
    assert len(trace["entries"]) == 3
    assert trace["corners"] == [
        [[0, 1], [0, 1]],
        [[4, 1], [0, 1]],
        [[4, 1], [3, 1]],
        [[2, 1], [6, 1]],
    ]
    entry = trace["entries"][0]
    assert entry["iter"] == 1
    assert entry["entering"] == "x1"
    assert entry["leaving"] == "w1"
    assert entry["ratio"] == {"num": 4, "den": 1}
    assert entry["degenerate"] is False
    assert entry["infeasibility_sum"] == {"num": 28, "den": 1}
    ray = doc["certificates"]["ray"]
    assert all(set(item) == {"var", "num", "den"} for item in ray)


def test_outcome_schema_infeasible(strip_sp):
    doc = json.loads(
        emit_outcome_json(solve(strip_sp, Method.ARTIFICIAL_FREE, SolveConfig()))
    )
    assert doc["status"] == "infeasible"
    assert doc["certificates"] == {"infeasible_rows": ["w2"]}
    assert "phase2" not in doc


def test_float_values_serialize_exactly():
    sp = af.standardize(
        af.parse_lp("max: x1;\nc1: 2 x1 <= 1;\n", FloatMode())
    )
    doc = json.loads(
        emit_outcome_json(solve(sp, Method.ARTIFICIAL_FREE, SolveConfig()))
    )
    # 0.5 is representable, so the exact pair is 1/2
    assert doc["solution"] == [{"var": "x1", "num": 1, "den": 2}]


def test_report_schema(walk_sp):
    report = compare(walk_sp, SolveConfig())
    text = emit_report_json(report)
    assert text == emit_report_json(report)
    doc = json.loads(text)
    assert doc["verdict"] == "feasible"
    assert doc["artificial_free"]["pivots"] == 3
    assert doc["traditional"]["pivots"] == 5
    assert doc["traditional"]["degenerate_pivots"] == 2
    assert doc["corners_equal"] is True
    assert doc["af_pivots_le_traditional"] is True


def test_oracle_json(walk_sp):
    doc = json.loads(emit_oracle_json(af.enumerate_vertices(walk_sp)))
    assert doc["feasible"] is True
    assert doc["unbounded"] is True
    assert "optimal_value" not in doc
    assert doc["vertices"] == [
        [[0, 1], [9, 1]],
        [[2, 1], [6, 1]],
        [[4, 1], [6, 1]],
    ]


def test_oracle_json_bounded():
    sp = problem_from("max: x1;\nc1: 3 x1 <= 1;\n")
    doc = json.loads(emit_oracle_json(af.enumerate_vertices(sp)))
    assert doc["optimal_value"] == {"num": 1, "den": 3}
    assert doc["optimal_vertex"] == [[1, 3]]


PAIR_VALUES = [
    0.0, -0.0, 5e-324, 2.0**-1074, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
    0.1, -0.1, -2.5, 1 / 3, -(2.0**-1022),
    0, -7, 10**400, -(2**100),
    Fraction(3, 2), Fraction(6, 4), Fraction(-7, 21), Fraction(10**50, 3 * 10**49),
]


def test_integer_ratio_is_the_fraction_pair():
    for value in PAIR_VALUES:
        frac = Fraction(value)
        assert value.as_integer_ratio() == (frac.numerator, frac.denominator), value


def test_float_solve_emits_the_fraction_pairs():
    tiny = "0." + "0" * 323 + "5"  # rounds to 5e-324, the smallest subnormal
    text = (
        "max: x1 + x2 + x3;\n"
        "c1: x1 <= 0.1;\n"
        f"c2: x2 <= 1{'0' * 308};\n"
        f"c3: x3 <= {tiny};\n"
        "c4: -3 x1 <= -0.25;\n"
    )
    sp = af.standardize(af.parse_lp(text, FloatMode()))
    out = solve(sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert out.status is af.Status.OPTIMAL
    assert out.solution == {"x1": 0.1, "x2": 1e308, "x3": 5e-324}
    assert out.phase1.pivots > 0

    def pair(v):
        frac = Fraction(v)
        return {"num": frac.numerator, "den": frac.denominator}

    def corner(values):
        return [[p["num"], p["den"]] for p in map(pair, values)]

    doc = json.loads(emit_outcome_json(out))
    assert doc["objective"] == pair(out.objective)
    assert doc["solution"] == [{"var": k, **pair(v)} for k, v in out.solution.items()]
    for name in ("phase1", "phase2"):
        trace, emitted = getattr(out, name), doc[name]
        assert emitted["corners"] == [corner(c) for c in trace.corners]
        assert [e["ratio"] for e in emitted["entries"]] == [pair(r.ratio) for r in trace.records]
        assert [e["infeasibility_sum"] for e in emitted["entries"]] == [
            pair(r.infeasibility_after) for r in trace.records
        ]
        assert [e["corner"] for e in emitted["entries"]] == [corner(r.corner) for r in trace.records]


# The payload builders the writer replaced, kept as its reference: each
# emitter must give `json.dumps(builder(record), indent=2) + "\n"`.


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


TRICKY_TEXT = [
    '"', "\\", "\x00", "\x1f", "\x7f",
    "\n\t\r", "\u00e9", "\u4e00", "\U0001f600",
    "\ud800", "/",
]


def huge_int(digits: int, negative: bool) -> int:
    value = 10 ** (digits - 1) + 12345
    return -value if negative else value


@contextmanager
def int_digit_limit(limit: int):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


HUGE = st.builds(huge_int, st.integers(4301, 4400), st.booleans())
VALUES = st.one_of(
    st.sampled_from(PAIR_VALUES),
    HUGE,
    st.builds(Fraction, HUGE, HUGE.map(abs)),
    st.fractions(),
)
NAMES = st.text(max_size=5) | st.lists(st.sampled_from(TRICKY_TEXT), max_size=4).map("".join)
# The writer reads only a label's name, so a stand-in can carry any text.
LABELS = st.builds(SimpleNamespace, name=NAMES)
CORNERS = st.lists(VALUES, max_size=3).map(tuple)
RECORDS = st.builds(
    PivotRecord,
    entering=LABELS,
    leaving=LABELS,
    ratio=VALUES,
    degenerate=st.booleans(),
    infeasibility_after=VALUES,
    corner=CORNERS,
)
TRACES = st.builds(
    Trace,
    method=NAMES,
    status=st.sampled_from(Status),
    initial_corner=CORNERS,
    initial_infeasibility=VALUES,
    records=st.lists(RECORDS, max_size=3).map(tuple),
)
OUTCOMES = st.builds(
    SolveOutcome,
    status=st.sampled_from(Status),
    solution=st.dictionaries(NAMES, VALUES, max_size=3),
    objective=st.none() | VALUES,
    phase1=TRACES,
    phase2=st.none() | TRACES,
    certificates=st.builds(
        Certificates,
        infeasible_rows=st.none() | st.lists(NAMES, max_size=3).map(tuple),
        ray=st.none() | st.dictionaries(NAMES, VALUES, max_size=3),
    ),
)
REPORTS = st.builds(
    ComparisonReport,
    verdict=st.sampled_from(Status),
    af=TRACES,
    traditional=TRACES,
    corners_equal=st.booleans(),
    af_pivots_le_traditional=st.booleans(),
)
ORACLES = st.builds(
    OracleResult,
    feasible=st.booleans(),
    unbounded=st.booleans(),
    optimal_value=st.none() | VALUES,
    optimal_vertex=st.none() | CORNERS,
    vertices=st.lists(CORNERS, max_size=3).map(tuple),
)

ZERO_PIVOTS = Trace("af", Status.FEASIBLE, (0.0, -0.0), 0, ())
ONE_PIVOT = replace(
    ZERO_PIVOTS,
    records=(PivotRecord(af.Label(1, 2), af.Label(0, 1), 5e-324, False, -0.0, (5e-324, 1.0)),),
)


def assert_matches_reference(emit, to_dict, record) -> None:
    with int_digit_limit(0):
        expected = json.dumps(to_dict(record), indent=2) + "\n"
    with int_digit_limit(4300):
        assert emit(record) == expected
        assert sys.get_int_max_str_digits() == 4300


@settings(max_examples=40, deadline=None)
@given(OUTCOMES)
@example(SolveOutcome(Status.INFEASIBLE, {}, None, ZERO_PIVOTS, None, Certificates(())))
@example(
    SolveOutcome(
        Status.UNBOUNDED, {}, None, ONE_PIVOT, ZERO_PIVOTS, Certificates(ray={"x1": 5e-324})
    )
)
@example(
    SolveOutcome(
        Status.OPTIMAL, {"\ud800": -0.0}, 1e308, ONE_PIVOT, ONE_PIVOT,
        Certificates(("w1", '"'), {}),
    )
)
def test_outcome_writer_matches_json_dumps_indent_2(outcome):
    assert_matches_reference(emit_outcome_json, outcome_to_dict, outcome)


@settings(max_examples=25, deadline=None)
@given(REPORTS)
@example(ComparisonReport(Status.FEASIBLE, ONE_PIVOT, ZERO_PIVOTS, False, True))
def test_report_writer_matches_json_dumps_indent_2(report):
    assert_matches_reference(emit_report_json, report_to_dict, report)


@settings(max_examples=30, deadline=None)
@given(ORACLES)
@example(OracleResult(False, False, None, None, ()))
@example(OracleResult(True, False, Fraction(-1, 3), (), ((),)))
def test_oracle_writer_matches_json_dumps_indent_2(result):
    assert_matches_reference(emit_oracle_json, oracle_to_dict, result)


def records_holding(x: float) -> list:
    """One record of each kind that holds the value x."""
    trace = Trace("af", Status.FEASIBLE, (x,), x, ())
    outcome = SolveOutcome(Status.OPTIMAL, {"x1": x}, x, trace, None, Certificates())
    return [
        (emit_outcome_json, outcome),
        (emit_report_json, ComparisonReport(Status.FEASIBLE, trace, trace, True, True)),
        (emit_oracle_json, OracleResult(True, False, Fraction(0), (x,), ((x,),))),
    ]


@pytest.mark.parametrize(
    "value, error",
    [(float("inf"), OverflowError), (float("-inf"), OverflowError), (float("nan"), ValueError)],
    ids=["inf", "-inf", "nan"],
)
def test_writer_refuses_values_without_a_ratio_and_restores_the_digit_limit(value, error):
    # `afsimplex solve` and `compare` turn these two errors into exit 65.
    for emit, record in records_holding(value):
        with int_digit_limit(4300):
            with pytest.raises(error):
                emit(record)
            assert sys.get_int_max_str_digits() == 4300


def with_counted_values(outcome: SolveOutcome) -> tuple[SolveOutcome, list]:
    """outcome with every value a float that records its as_integer_ratio calls."""
    calls = []

    class Counted(float):
        def as_integer_ratio(self):
            calls.append(self)
            return super().as_integer_ratio()

    def corner(values):
        return tuple(map(Counted, values))

    def trace(t: Trace) -> Trace:
        records = tuple(
            replace(
                rec,
                ratio=Counted(rec.ratio),
                infeasibility_after=Counted(rec.infeasibility_after),
                corner=corner(rec.corner),
            )
            for rec in t.records
        )
        return replace(t, initial_corner=corner(t.initial_corner), records=records)

    certs = outcome.certificates
    ray = None if certs.ray is None else {k: Counted(v) for k, v in certs.ray.items()}
    counted = replace(
        outcome,
        solution={k: Counted(v) for k, v in outcome.solution.items()},
        objective=None if outcome.objective is None else Counted(outcome.objective),
        phase1=trace(outcome.phase1),
        phase2=None if outcome.phase2 is None else trace(outcome.phase2),
        certificates=replace(certs, ray=ray),
    )
    return counted, calls


@pytest.mark.parametrize(
    "text, status",
    [
        (WALK_TEXT, Status.UNBOUNDED),
        ("max: x1 + x2;\nc1: x1 + x2 <= 3/2;\nc2: x1 >= 1/2;\n", Status.OPTIMAL),
    ],
    ids=["unbounded", "optimal"],
)
def test_each_value_is_formatted_once(text, status):
    outcome = solve(af.standardize(af.parse_lp(text, FloatMode())))
    assert outcome.status is status
    traces = [t for t in (outcome.phase1, outcome.phase2) if t is not None]
    assert all(t.records for t in traces)
    counted, calls = with_counted_values(outcome)
    assert emit_outcome_json(counted) == emit_outcome_json(outcome)
    corner_values = sum(len(c) for t in traces for c in t.corners)
    pivot_values = sum(2 * t.pivots for t in traces)
    named_values = len(outcome.solution) + len(outcome.certificates.ray or {})
    objective = outcome.objective is not None
    assert len(calls) == corner_values + pivot_values + named_values + objective
