"""The library imports only the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "afsimplex").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_were_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = [
        name for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import name
                yield from (alias.name for alias in node.names)
            else:
                yield node.module


def test_oracle_shares_no_code_with_the_solver():
    # The oracle is the ground truth the solver is checked against, so it
    # may lean on the problem containers and the numeric modes only.
    oracle = next(path for path in SOURCES if path.name == "oracle.py")
    assert set(relative_imports(oracle)) <= {"model", "numeric"}
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in absolute_imports(oracle))
