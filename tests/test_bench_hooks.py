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
