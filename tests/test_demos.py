"""Every script in demos/ runs to the end without an error."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
