"""The phase-1 cycler: four rows on which the artificial-free phase 1 stalls.

Beale's cycling objective, put into phase 1 as the violated row r4, makes
both phase-1 methods revisit a basis under Dantzig pricing with
smallest-label ties; the abstract's "avoids stalling" holds only in many
cases.  The abs-pivot tie rules escape.  Every count below was measured
with `afsimplex solve` and is pinned as it stands.
"""

import json
from fractions import Fraction

import pytest

from afsimplex import enumerate_vertices, parse_lp, standardize
from afsimplex.cli import main

from conftest import PHASE1_CYCLER_TEXT, PHASE1_CYCLER_TWIN_TEXT

TEXTS = {"cycler": PHASE1_CYCLER_TEXT, "twin": PHASE1_CYCLER_TWIN_TEXT}

# (text, --tie) -> (exit code, status, objective, phase-1 pivots, degenerate)
MEASURED = {
    ("cycler", "smallest-label"): (3, "cycle_detected", None, 6, 6),
    ("twin", "smallest-label"): (3, "cycle_detected", None, 6, 6),
    ("cycler", "smallest-abs-pivot"): (0, "optimal", Fraction(17, 50), 5, 3),
    ("twin", "smallest-abs-pivot"): (1, "infeasible", None, 5, 3),
    ("cycler", "largest-abs-pivot"): (0, "optimal", Fraction(17, 50), 2, 1),
    ("twin", "largest-abs-pivot"): (1, "infeasible", None, 2, 1),
}


@pytest.mark.parametrize("method", ["af", "trad"])
@pytest.mark.parametrize("text, tie", sorted(MEASURED))
def test_phase1_cycler_stops_as_measured(text, tie, method, tmp_path, capsys):
    path = tmp_path / f"{text}.lp"
    path.write_text(TEXTS[text], encoding="utf-8")
    code = main(["solve", str(path), "--method", method, "--tie", tie])
    doc = json.loads(capsys.readouterr().out)
    value = doc.get("objective")
    objective = value and Fraction(value["num"], value["den"])
    phase1 = doc["phase1"]
    got = (code, doc["status"], objective, phase1["pivots"], phase1["degenerate_pivots"])
    assert got == MEASURED[text, tie]


def test_oracle_agrees_with_the_escapes():
    cycler = enumerate_vertices(standardize(parse_lp(PHASE1_CYCLER_TEXT)))
    assert cycler.feasible and cycler.optimal_value == Fraction(17, 50)
    assert not enumerate_vertices(standardize(parse_lp(PHASE1_CYCLER_TWIN_TEXT))).feasible
