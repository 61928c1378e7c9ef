"""The benchmark's tracer wraps library callables by name; each must exist
and must still be called through that name.

`perfbench/tracing.py` looks every name in its `WRAPPED` table up through
`owner.__dict__[attr]`, so a library change that removes or moves one of
them breaks traced benchmark runs, and one that calls a reference bound
at import time hides the call from them.  These tests only read
`perfbench/`; the last one runs the benchmark's own tests, so a library
change that breaks them fails here rather than in a benchmark run.
"""

import importlib
import subprocess
import sys
from pathlib import Path

from afsimplex import harness
from afsimplex.trace import SolveConfig

from conftest import problem_from

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED]
    with tracing.Tracer().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED] == originals


def test_tracer_sees_the_harness_call_each_runner(monkeypatch, walk_sp):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    with tracing.Tracer().installed() as tracer:
        for method in harness.Method:
            harness.solve(walk_sp, method)
        harness.compare(walk_sp)
    spans = tracer.spans
    seen = {(None if s.parent is None else spans[s.parent].name, s.name) for s in spans}
    assert {
        ("harness.solve", "phase1.run"),
        ("harness.solve", "traditional.run"),
        ("harness.solve", "phase2.run"),
        ("harness.solve", "phase2.step"),
        ("harness.compare", "phase1.run"),
        ("harness.compare", "traditional.run"),
        (None, "harness.compare"),
    } <= seen


def test_benchmark_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _inside(spans, span, name):
    """Whether a span named `name` encloses `span`."""
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def test_tracer_sees_every_traditional_pivot(monkeypatch, walk_sp):
    # perfbench's `traditional.pivot` span wraps the two pivot methods of
    # `AuxiliaryDictionary`: every phase-1 pivot of a traditional solve
    # must pass through one of them, the shortcut's included, or the
    # span's time silently reads 0.
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    shortcut = problem_from("max: x1;\nc1: x1 >= 2;\nc2: x1 <= 2;\n")
    for sp, config in ((walk_sp, SolveConfig()), (shortcut, SolveConfig(use_trick=True))):
        with tracing.Tracer().installed() as tracer:
            outcome = harness.solve(sp, harness.Method.TRADITIONAL, config)
        spans = tracer.spans
        direct = [
            s
            for s in spans
            if s.name == "traditional.pivot" and spans[s.parent].name == "traditional.run"
        ]
        assert len(direct) == outcome.phase1.pivots > 0
        phase1_pivots = [
            s
            for s in spans
            if s.name == "dictionary.pivot" and _inside(spans, s, "traditional.run")
        ]
        assert len(phase1_pivots) == outcome.phase1.pivots
        assert all(_inside(spans, s, "traditional.pivot") for s in phase1_pivots)
        assert any(rec.via_conjugate for rec in outcome.phase1.records) is config.use_trick
