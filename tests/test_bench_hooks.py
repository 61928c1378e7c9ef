"""The benchmark's tracer wraps library callables by name; each must exist.

`perfbench/tracing.py` looks every name in its `WRAPPED` table up through
`owner.__dict__[attr]`, so a library change that removes or moves one of
them breaks traced benchmark runs.  This test only reads `perfbench/`.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    originals = [owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED]
    with tracing.Tracer().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr, _ in tracing.WRAPPED] == originals
