"""JSON emission: schema shape, exact rationals, byte determinism."""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afsimplex as af
from afsimplex.harness import Method, compare, solve
from afsimplex.jsonout import (
    _dump,
    emit_oracle_json,
    emit_outcome_json,
    emit_report_json,
    outcome_to_dict,
)
from afsimplex.numeric import FloatMode
from afsimplex.trace import SolveConfig

from conftest import problem_from


def test_outcome_bytes_are_deterministic(walk_sp):
    out = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert emit_outcome_json(out) == emit_outcome_json(out)
    again = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert emit_outcome_json(again) == emit_outcome_json(out)


def test_trace_corners_are_built_once(walk_sp):
    trace = outcome_to_dict(solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig()))["phase1"]
    assert trace["entries"]
    for k, entry in enumerate(trace["entries"]):
        assert entry["corner"] is trace["corners"][k + 1]


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


TRICKY_TEXT = [
    '"', "\\", "\x00", "\x1f", "\x7f",
    "\n\t\r", "\u00e9", "\u4e00", "\U0001f600",
    "\ud800", "/",
]


def huge_int(digits: int, negative: bool) -> int:
    value = 10 ** (digits - 1) + 12345
    return -value if negative else value


INTEGERS = st.integers() | st.builds(huge_int, st.integers(4301, 4400), st.booleans())
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    INTEGERS,
    st.text(),
    st.lists(st.sampled_from(TRICKY_TEXT)).map("".join),
    st.tuples(st.integers(), st.integers(min_value=1)),
    # a corner: a list made only of (num, den) pairs
    st.lists(st.tuples(INTEGERS, INTEGERS), min_size=1, max_size=5),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text() | st.sampled_from(TRICKY_TEXT), children, max_size=4),
    max_leaves=25,
)


def as_json_dumps_input(obj):
    """The writer's (num, den) tuples are JSON arrays; `json.dumps` takes lists."""
    if isinstance(obj, tuple):
        return list(obj)
    if isinstance(obj, list):
        return [as_json_dumps_input(v) for v in obj]
    if isinstance(obj, dict):
        return {k: as_json_dumps_input(v) for k, v in obj.items()}
    return obj


@contextmanager
def int_digit_limit(limit: int):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def reference_dump(obj) -> str:
    with int_digit_limit(0):
        return json.dumps(as_json_dumps_input(obj), indent=2, sort_keys=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps_indent_2(payload):
    with int_digit_limit(4300):
        assert _dump(payload) == reference_dump(payload)
        assert sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("bad", [{"a": [1, {2}]}, [1.5], {"x": object()}])
def test_writer_refuses_other_types_and_restores_the_digit_limit(bad):
    with int_digit_limit(4300):
        with pytest.raises(TypeError):
            _dump(bad)
        assert sys.get_int_max_str_digits() == 4300


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
