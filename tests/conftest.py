import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import afsimplex as af
from afsimplex.phase1 import phase1_objective_vector

# Five-constraint walkthrough instance: infeasible at the origin, feasible
# region unbounded upward, so the full solve ends UNBOUNDED.
WALK_TEXT = """\
max: 3 x1 + 5 x2;
c1: x1 <= 4;
c2: x2 >= 6;
c3: 3x1 + 2x2 >= 18;
c4: x1 + x2 >= 8;
c5: 5x1 + 4x2 >= 32;
"""

# Empty strip: x1 <= 1 and x1 >= 2 cannot both hold.
STRIP_TEXT = """\
max: x1;
c1: x1 <= 1;
c2: x1 >= 2;
"""

# Classic degenerate instance that cycles under Dantzig entering with
# smallest-label leaving ties.
CYCLER_TEXT = """\
max: 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4;
r1: 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 <= 0;
r2: 1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 <= 0;
r3: x3 <= 1;
"""

# Beale's objective as one violated row: under Dantzig pricing with
# smallest-label ties both phase-1 methods cycle through degenerate pivots.
PHASE1_CYCLER_TEXT = """\
max: x1;
r1: 1/4 x1 - 60 x2 - 1/25 x3 + 9 x4 <= 0;
r2: 1/2 x1 - 90 x2 - 1/50 x3 + 3 x4 <= 0;
r3: x3 <= 1;
r4: 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4 >= 1/40;
"""

# The same rows with r4 >= 1: empty, and it cycles the same way.
PHASE1_CYCLER_TWIN_TEXT = PHASE1_CYCLER_TEXT.replace(">= 1/40;", ">= 1;")


@pytest.fixture(scope="session", autouse=True)
def package_path_for_child_processes():
    """Child processes that run `python -m afsimplex.cli` import the package
    the tests import, also when pytest found it through its `pythonpath`."""
    paths = [str(Path(af.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture(scope="session")
def walk_problem():
    return af.parse_lp(WALK_TEXT)


@pytest.fixture(scope="session")
def walk_sp(walk_problem):
    return af.standardize(walk_problem)


@pytest.fixture(scope="session")
def strip_sp():
    return af.standardize(af.parse_lp(STRIP_TEXT))


@pytest.fixture(scope="session")
def cycler_sp():
    return af.standardize(af.parse_lp(CYCLER_TEXT))


@cache
def ladder_text(n: int, shape: af.Shape) -> str:
    """The LP text of `generate_lp(1, n, n, shape=shape)`, written once per
    session for every test that reads a ladder."""
    return af.format_lp(af.generate_lp(1, n, n, shape=shape))


def problem_from(text: str) -> af.StandardProblem:
    return af.standardize(af.parse_lp(text))


def x1_bounds_text(rows: int) -> str:
    """`max: x1` under the rows x1 <= 1, ..., x1 <= rows: m + 1 bases but
    a walk of 4m - 5 Gauss-Jordan steps (m >= 3), each over all m rows."""
    return "max: x1;\n" + "".join(f"x1 <= {k};\n" for k in range(1, rows + 1))


def replayed_pricing(sp: af.StandardProblem, trace: af.Trace) -> list:
    """W before each pivot of `trace`, replayed by label from the initial
    dictionary of `sp`."""
    d = af.initial_dictionary(sp)
    pricing = []
    for rec in trace.records:
        pricing.append(phase1_objective_vector(d, af.infeasible_rows(d)))
        d = d.pivot(d.basis.index(rec.leaving) + 1, d.nonbasis.index(rec.entering) + 1)
    return pricing


def fractions_built_during(fn, *args) -> int:
    """How many times Fraction.__new__ runs while fn is on the stack."""
    calls = 0
    inside = 0
    target, new = fn.__code__, Fraction.__new__.__code__

    def hook(frame, event, arg):
        nonlocal calls, inside
        if event == "call" and frame.f_code is target:
            inside += 1
        elif event == "return" and frame.f_code is target:
            inside -= 1
        elif event == "call" and frame.f_code is new and inside:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls
