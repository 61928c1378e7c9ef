"""JSON emission: schema shape, exact rationals, byte determinism."""

import json

import afsimplex as af
from afsimplex.harness import Method, compare, solve
from afsimplex.jsonout import (
    emit_oracle_json,
    emit_outcome_json,
    emit_report_json,
)
from afsimplex.numeric import FloatMode
from afsimplex.trace import SolveConfig

from conftest import problem_from


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
