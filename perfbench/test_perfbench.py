"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench
"""

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from afsimplex import Certificates, Status, harness  # noqa: E402
from checks import Checker, load_references  # noqa: E402

SWEEP = workloads.WORKLOADS["oracle-sweep"]


def sweep_instances(count=12, seed=3):
    # Skip the 1x1 corner of the grid: it holds infeasible and unbounded
    # problems; the planted error below needs optimal ones.
    return workloads.build(SWEEP, seed)[300 : 300 + count]


def one_pass(instances):
    checker = Checker(SWEEP.mode, load_references())
    samples, tally, _ = run.measure(instances, SWEEP.mode, checker, seconds=0)
    return samples, tally


def test_clean_pass_has_no_failures():
    samples, tally = one_pass(sweep_instances())
    assert tally.attempted == 12
    assert tally.failed == 0
    assert run.end_to_end(samples, tally, 1.0)["correct_frac"][0] == 1.0


def off_by_one(outcome):
    return dataclasses.replace(outcome, objective=outcome.objective + 1)


def claims_infeasible(outcome):
    # Consistent in itself; only the pinned reference can tell it is wrong.
    return dataclasses.replace(
        outcome,
        status=Status.INFEASIBLE,
        solution={},
        objective=None,
        certificates=Certificates(infeasible_rows=("c1",)),
    )


@pytest.mark.parametrize("plant", [off_by_one, claims_infeasible])
def test_planted_wrong_answer_is_counted_in_failed_frac(monkeypatch, plant):
    real_solve = harness.solve
    planted = []

    def wrong_solve(sp, method=harness.Method.ARTIFICIAL_FREE, config=None, monitor=None):
        outcome = real_solve(sp, method, config, monitor)
        if outcome.objective is None or method is not harness.Method.TRADITIONAL:
            return outcome
        planted.append(sp)
        return plant(outcome)

    monkeypatch.setattr(harness, "solve", wrong_solve)
    samples, tally = one_pass(sweep_instances())
    assert planted
    assert tally.failed == len(planted) // 2  # trad and trad+trick in one instance
    extra = run.extra_end_to_end(samples, tally, 1.0)
    assert extra["failed_frac"][0] == tally.failed / tally.attempted > 0
    assert run.end_to_end(samples, tally, 1.0)["correct_frac"][0] < 1


def test_raised_error_is_a_failure_not_a_crash(monkeypatch):
    def broken_compare(sp, config=None):
        raise RuntimeError("planted")

    monkeypatch.setattr(harness, "compare", broken_compare)
    _, tally = one_pass(sweep_instances(count=3))
    assert (tally.attempted, tally.failed) == (3, 3)
    assert "planted" in tally.errors[0]


def wrapped_now():
    return [owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED]


def test_no_wrapper_is_left_after_a_traced_run():
    before = wrapped_now()
    tracer = tracing.Tracer()
    checker = Checker(SWEEP.mode, load_references())
    metrics, tally = run.traced(sweep_instances(count=4), SWEEP.mode, checker, tracer)
    assert tally.failed == 0
    assert metrics["oracle.bases"][0] > 0
    assert metrics["phase1.pivots"][0] > 0
    assert all(a is b for a, b in zip(wrapped_now(), before))


def test_wrappers_are_removed_when_the_block_raises():
    before = wrapped_now()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert not any(a is b for a, b in zip(wrapped_now(), before))
            1 / 0
    assert all(a is b for a, b in zip(wrapped_now(), before))


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("outer", 0.0, 10.0, None, 0),
        tracing.Span("inner", 1.0, 4.0, 0, 0),
        tracing.Span("leaf", 2.0, 3.0, 1, 0),
        tracing.Span("inner", 5.0, 6.0, 0, 0),
    ]
    total, own, calls = tracer.totals()
    assert total["outer"] == 10.0 and own["outer"] == 6.0
    assert total["inner"] == 4.0 and own["inner"] == 3.0
    assert own["leaf"] == 1.0
    assert calls["inner"] == 2


def test_same_seed_gives_same_texts_and_relabelling_keeps_answers():
    ladder = workloads.WORKLOADS["exact-ladder"]
    first = workloads.build(ladder, 5)
    assert [i.text for i in first] == [i.text for i in workloads.build(ladder, 5)]
    assert [i.text for i in first] != [i.text for i in workloads.build(ladder, 6)]
    checker = Checker(SWEEP.mode, load_references())
    for seed in (0, 1):
        instance = workloads.build(SWEEP, seed)[400]
        assert checker.check(instance, workloads.run_instance(instance, SWEEP.mode)) == []
