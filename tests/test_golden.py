"""Golden bytes: SHA-256 digests of the emitted JSON and of the written LP
text, pinned in this file.

`test_outcome_bytes_are_deterministic` compares two runs inside one
process, so a change that alters the bytes the same way every time passes
it.  These digests were computed once and are compared on every run, so
any change to the solver's decisions, values or serialization shows here.
Each digest covers `emit_outcome_json` (or `emit_report_json`, or
`emit_oracle_json` of the enumeration oracle) of every instance in its
group, concatenated in order.  The LP-text digests cover `format_lp` of
generated problems and `afsimplex gen` output the same way: the round-trip
tests would pass if the text changed, and every benchmark input is such
text.
"""

import hashlib
from pathlib import Path

import pytest

from afsimplex.cli import main
from afsimplex.generate import Shape, generate_lp
from afsimplex.harness import Method, compare, solve
from afsimplex.jsonout import emit_oracle_json, emit_outcome_json, emit_report_json
from afsimplex.lpformat import format_lp, parse_lp
from afsimplex.model import standardize
from afsimplex.numeric import EXACT, FloatMode
from afsimplex.oracle import enumerate_vertices
from afsimplex.trace import SolveConfig

from conftest import (
    CYCLER_TEXT,
    PHASE1_CYCLER_TEXT,
    PHASE1_CYCLER_TWIN_TEXT,
    STRIP_TEXT,
    ladder_text,
)

WALK_LP = (Path(__file__).resolve().parent.parent / "demos" / "walk.lp").read_text()

MODES = {"exact": EXACT, "float": FloatMode(1e-9)}

RUNS = {
    "af": (Method.ARTIFICIAL_FREE, SolveConfig()),
    "trad": (Method.TRADITIONAL, SolveConfig()),
    "trick": (Method.TRADITIONAL, SolveConfig(use_trick=True)),
}

SWEEP_SHAPES = (Shape.FEASIBLE_BIASED, Shape.INFEASIBLE_BIASED, Shape.DEGENERATE_BIASED)
SWEEP_SIZES = ((2, 3), (3, 2), (4, 4), (6, 5), (5, 7), (8, 8))


def text_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def sweep_texts() -> list[str]:
    return [
        format_lp(generate_lp(seed, rows, cols, shape=shape))
        for rows, cols in SWEEP_SIZES
        for shape in SWEEP_SHAPES
        for seed in (1, 2)
    ]


def solve_digest(texts, mode_name: str, run: str) -> str:
    mode = MODES[mode_name]
    method, config = RUNS[run]
    h = hashlib.sha256()
    for text in texts:
        outcome = solve(standardize(parse_lp(text, mode)), method, config)
        h.update(emit_outcome_json(outcome).encode())
    return h.hexdigest()


def compare_digest(texts, mode_name: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        report = compare(standardize(parse_lp(text, MODES[mode_name])), SolveConfig())
        h.update(emit_report_json(report).encode())
    return h.hexdigest()


def oracle_digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(emit_oracle_json(enumerate_vertices(standardize(parse_lp(text)))).encode())
    return h.hexdigest()


def ladder_texts() -> list[str]:
    """Answers with long float expansions: 30x30, one instance per shape."""
    return [ladder_text(30, shape) for shape in SWEEP_SHAPES]


GROUPS = {
    "walk": lambda: [WALK_LP],
    "strip": lambda: [STRIP_TEXT],
    "cycler": lambda: [CYCLER_TEXT],
    "phase1_cycler": lambda: [PHASE1_CYCLER_TEXT, PHASE1_CYCLER_TWIN_TEXT],
    "sweep": sweep_texts,
    "ladder": ladder_texts,
}

SOLVE_GOLDEN = {
    ("walk", "exact", "af"): "47d70fb4980c5b198276c71d824df00ddca7650bbe28018142103bbc6bafb3bd",
    ("walk", "exact", "trad"): "d3bb47a8cfd944b2b4deec7f374fcc4b71763b31502f8436182d3de3f2a2fe7b",
    ("walk", "exact", "trick"): "348cf5adbb721a367840f0f81d9f50edda46731fe893f6bdb2a3e0dbaf303d20",
    ("walk", "float", "af"): "47d70fb4980c5b198276c71d824df00ddca7650bbe28018142103bbc6bafb3bd",
    ("walk", "float", "trad"): "363d27e7c6d03fef2601b7cf9b91b21e2f14844dce14840cc7b51f2a0564e734",
    ("walk", "float", "trick"): "348cf5adbb721a367840f0f81d9f50edda46731fe893f6bdb2a3e0dbaf303d20",
    ("cycler", "exact", "af"): "3b9f43288d2b0ab3d296354c6f55ad7057f33c718359db3a36794bbc0adc0c25",
    ("cycler", "exact", "trad"): "0cfd6a6ce00752d4a7f6825170e67aa75d671e6213156ba5b2c705aaa63da21d",
    ("cycler", "exact", "trick"): "0cfd6a6ce00752d4a7f6825170e67aa75d671e6213156ba5b2c705aaa63da21d",
    ("cycler", "float", "af"): "5fa041fa10d6501c88afbba8753c80142b214b43ec601262cee76b72d13d66d9",
    ("cycler", "float", "trad"): "1236f98ca2cf41fc5d27f00619a5929817c1d858f684963eb18cb838dba7d5d6",
    ("cycler", "float", "trick"): "1236f98ca2cf41fc5d27f00619a5929817c1d858f684963eb18cb838dba7d5d6",
    # Exact mode stops at cycle_detected; float mode runs to iteration_limit.
    ("phase1_cycler", "exact", "af"): "c0fb9a9e2dca6544175e1fa8a90b6c49764af02ae032f3d8ac2bec3612fdfa4d",
    ("phase1_cycler", "exact", "trad"): "8396ed2835a27a6bb0504bbf465080837ef2167c632d62a01232c829d1edbadf",
    ("phase1_cycler", "exact", "trick"): "8396ed2835a27a6bb0504bbf465080837ef2167c632d62a01232c829d1edbadf",
    ("phase1_cycler", "float", "af"): "60a565e11d8980320aec3202973e0e00b87e75972803a69751c339d1dbbc5e09",
    ("phase1_cycler", "float", "trad"): "9eb9e2c7c97ad992d31d435ea7fb30dede6b37df4010a638a4068218fb7c9edb",
    ("phase1_cycler", "float", "trick"): "9eb9e2c7c97ad992d31d435ea7fb30dede6b37df4010a638a4068218fb7c9edb",
    ("sweep", "exact", "af"): "aa1399d7306578f37ea106c186f704151a0b83b33cb8fc668b33eb24b778c5d6",
    ("sweep", "exact", "trad"): "8e6eafd8da0106664efde449f55a82bfa800036383ed0e69b94f3a7008c79b24",
    ("sweep", "exact", "trick"): "776bd3fcac5224df51001c4f03df05ac00514560bbbee80e3fbfab718cc6aa63",
    ("sweep", "float", "af"): "483bddd8ca3759ea1ecd73816e2800ecdb9678e7fff9fc3b3ce54041f80a4bbc",
    ("sweep", "float", "trad"): "c0331aaf32f5d0938ca161d5437cf55074a26ca4dfaa0f8d68827e9b97c4a102",
    ("sweep", "float", "trick"): "5097207f5a5444be410a20a2ca2c79c091d605a8ec5c945b7fa28a1d2184c5de",
    # 31 x 31 grids and larger: the exact ladder runs on packed rows.
    ("ladder", "exact", "af"): "2276e46438d97f8c4db04f8b65c698b12ec037846bab003381bfc52da8165a09",
    ("ladder", "exact", "trad"): "43cbe28c3fa76376b7925b8b08368837ca73648732fb3b8375fb0dfcb27e0f07",
    ("ladder", "exact", "trick"): "43cbe28c3fa76376b7925b8b08368837ca73648732fb3b8375fb0dfcb27e0f07",
    ("ladder", "float", "af"): "98f6b99902a32c36a20d7754a89bc93e0da75a2be9222b9e3a642f40a57d7faa",
    ("ladder", "float", "trad"): "1de7f7c6460b6903ddf1187b5e6ddd4db6b578cbeb823fb4c99af608fe20ca42",
}

COMPARE_GOLDEN = {
    "exact": "15dde6a33827db097ab3a849efb0e45c8f3b2b408b5dd10fdca6d6e1c2a2dd54",
    "float": "1ed695aa12309bdedc0385a605d1cd9272b961f2a4f98e7700c9394a861255d3",
}

LADDER_COMPARE_GOLDEN = {
    "exact": "eb8e7480cdd2dc295e553711e3f345b50d0d1b4dc1556716b04fa7c5a68b0399",
}

ORACLE_GOLDEN = {
    "walk": "728e48fa46645d07f4572ba4f83c92cb3d855380a6877d0aa2e51ac836174570",
    "strip": "3c86bc86b3c8d11ff4944485c34e61617a444146031eab456c86a4e15b54d733",
    "cycler": "451fbcb2603016d68df1322b3219b49d811ca9f29e00ceef0ba3853fc68e3641",
    "sweep": "465a60c72a8331d989a63ae3dbe4c28a9677838dd064e21f7a1e1d6ba45afe40",
}


@pytest.mark.parametrize("group, mode_name, run", sorted(SOLVE_GOLDEN))
def test_solve_json_bytes_match_golden(group, mode_name, run):
    digest = solve_digest(GROUPS[group](), mode_name, run)
    assert digest == SOLVE_GOLDEN[group, mode_name, run]


@pytest.mark.parametrize("mode_name", sorted(COMPARE_GOLDEN))
def test_compare_json_bytes_match_golden(mode_name):
    assert compare_digest(sweep_texts(), mode_name) == COMPARE_GOLDEN[mode_name]


@pytest.mark.parametrize("mode_name", sorted(LADDER_COMPARE_GOLDEN))
def test_ladder_compare_json_bytes_match_golden(mode_name):
    assert compare_digest(ladder_texts(), mode_name) == LADDER_COMPARE_GOLDEN[mode_name]


@pytest.mark.parametrize("group", sorted(ORACLE_GOLDEN))
def test_oracle_json_bytes_match_golden(group):
    assert oracle_digest(GROUPS[group]()) == ORACLE_GOLDEN[group]


LADDER_TEXT_GOLDEN = {
    20: "833d0e8b73893bbae012c4e3174743ff0395a5b364efd4951f0fb6130fc35fd2",
    30: "7b256f08a407715eb95db64c81c4d098a69e909150eef0d6f6513949d3e6a095",
    40: "26776b7d7f645e134cdc9939ccd8ce47b1eecac7ab30f00d571b9a45687c2007",
    60: "a56de3ee4fd5735c035d3b5b3b588cc5d631c55a9133cc3df6b9aa4b83524192",
    80: "f9ce9d00bc4a359d94e535350651bb928f6f20a3f75d62805072324aa914e6fb",
    100: "6b7abf13d54077277d35886d018d35d045648ef3b33cff30abd0e81da091dc51",
}

# The 540 problems of tests/test_acceptance.py's sweep, in its order and seeds
ACCEPTANCE_TEXT_GOLDEN = "02ddcc0880bd031c7cc9006f5d04b4df83cee076f23c97094e32ff34cc358332"

GEN_GOLDEN = {
    Shape.FEASIBLE_BIASED: "3a67ec54cca9a1bc5e3a421307d8d571f704be4b468656a0c2fc9f6f8d3f9cba",
    Shape.INFEASIBLE_BIASED: "0a9f0fb18b38d75a283d8cfaee090fb86b96c1625c24977d9a41af60ee5d836d",
    Shape.DEGENERATE_BIASED: "a65166da32cc62f2a6bfcc9a20b5670d049ec76ae832908d4fdee7cf445faf7d",
}


@pytest.mark.parametrize("n", sorted(LADDER_TEXT_GOLDEN))
def test_ladder_lp_text_bytes_match_golden(n):
    texts = [ladder_text(n, shape) for shape in SWEEP_SHAPES]
    assert text_digest(texts) == LADDER_TEXT_GOLDEN[n]


def test_acceptance_sweep_lp_text_bytes_match_golden():
    texts: list[str] = []
    for rows in range(1, 7):
        for cols in range(1, 7):
            for shape in SWEEP_SHAPES:
                for _ in range(5):
                    texts.append(format_lp(generate_lp(len(texts), rows, cols, shape=shape)))
    assert len(texts) == 540
    assert text_digest(texts) == ACCEPTANCE_TEXT_GOLDEN


@pytest.mark.parametrize("shape", SWEEP_SHAPES, ids=lambda shape: shape.value)
def test_gen_stdout_bytes_match_golden(shape, capsys):
    outputs = []
    for seed in ("1", "2"):
        argv = ["gen", "--seed", seed, "--rows", "8", "--cols", "6", "--shape", shape.value]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert text_digest(outputs) == GEN_GOLDEN[shape]
