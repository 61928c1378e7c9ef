"""Command line behaviour: exit codes, output bytes, file side effects."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from afsimplex import parse_lp, solve, standardize
from afsimplex.cli import _build_parser, main
from afsimplex.trace import SolveConfig

from conftest import CYCLER_TEXT, STRIP_TEXT, WALK_TEXT, x1_bounds_text

BOX_TEXT = "max: x1 + x2;\nc1: x1 <= 2;\nc2: x2 <= 3;\n"


@pytest.fixture()
def lp_file(tmp_path):
    def write(text, name="problem.lp"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_solve_optimal_exit_zero(lp_file, capsys):
    assert main(["solve", lp_file(BOX_TEXT)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert doc["objective"] == {"num": 5, "den": 1}


def test_solve_infeasible_exit_one(lp_file, capsys):
    assert main(["solve", lp_file(STRIP_TEXT)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_solve_unbounded_exit_two(lp_file, capsys):
    assert main(["solve", lp_file(WALK_TEXT)]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "unbounded"


def test_solve_safeguard_exit_three(lp_file, capsys):
    assert main(["solve", lp_file(CYCLER_TEXT)]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "cycle_detected"


def test_solve_tie_rule_sidesteps_cycle(lp_file, capsys):
    assert main(["solve", lp_file(CYCLER_TEXT), "--tie", "smallest-abs-pivot"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == {"num": 1, "den": 20}


def test_solve_traditional_method(lp_file, capsys):
    assert main(["solve", lp_file(WALK_TEXT), "--method", "trad"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["phase1"]["method"] == "traditional_phase1"
    assert main(["solve", lp_file(WALK_TEXT), "--method", "trad", "--trick"]) == 2


def test_solve_float_numeric(lp_file, capsys):
    assert main(["solve", lp_file(WALK_TEXT), "--numeric", "float"]) == 2
    capsys.readouterr()


def test_solve_output_is_byte_stable(lp_file, capsys):
    path = lp_file(WALK_TEXT)
    main(["solve", path])
    first = capsys.readouterr().out
    main(["solve", path])
    assert capsys.readouterr().out == first


def test_solve_quiet_suppresses_stdout(lp_file, capsys):
    assert main(["solve", lp_file(WALK_TEXT), "--quiet"]) == 2
    assert capsys.readouterr().out == ""


def test_solve_trace_file_matches_stdout(lp_file, tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    main(["solve", lp_file(WALK_TEXT), "--trace", str(out_path)])
    assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out


def test_solve_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.lp")]) == 64
    err = capsys.readouterr().err
    assert err.startswith("afsimplex:")
    assert "cannot read" in err


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "{lp}", "--trace", "{out}"],
        ["compare", "{lp}", "--report", "{out}"],
        ["gen", "--seed", "1", "--rows", "2", "--cols", "2", "--out", "{out}"],
    ],
    ids=["solve", "compare", "gen"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(lp_file, tmp_path, capsys, command, where):
    out = tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path
    argv = [arg.format(lp=lp_file(BOX_TEXT), out=out) for arg in command]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith(f"afsimplex: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "data, offset",
    [(b"\xff\xfe", 0), (b"max: x1;\nc1: x1 <= 1;\n# caf\xc3\xa9 \xe9\n", 30)],
)
def test_input_that_is_not_utf8_is_data_error(tmp_path, capsys, data, offset):
    path = tmp_path / "latin1.lp"
    path.write_bytes(data)
    for command in ("solve", "compare", "oracle"):
        assert main([command, str(path)]) == 65
        captured = capsys.readouterr()
        assert captured.err == f"afsimplex: {path}: not UTF-8 text at byte offset {offset}\n"
        assert captured.out == ""


def test_solve_parse_error_is_data_error(lp_file, capsys):
    assert main(["solve", lp_file("max x;\n")]) == 65
    assert "line 1" in capsys.readouterr().err


def test_unnamed_row_beside_a_row_named_c1_solves(lp_file, capsys):
    assert main(["solve", lp_file("max: x1 + x2; c1: x1 <= 4; x2 <= 3;\n")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == {"num": 7, "den": 1}


def test_duplicate_constraint_name_is_data_error(lp_file, capsys):
    assert main(["solve", lp_file("max: x1;\nc1: x1 <= 4;\nc1: x1 <= 3;\n")]) == 65
    assert "line 3, column 1" in capsys.readouterr().err


def test_solve_constraintless_file_is_data_error(lp_file, capsys):
    assert main(["solve", lp_file("max: x;\n")]) == 65
    assert "constraint" in capsys.readouterr().err


def test_bad_flag_is_usage_error(lp_file, capsys):
    assert main(["solve", lp_file(BOX_TEXT), "--tie", "bogus"]) == 64
    assert main(["frobnicate"]) == 64
    assert main([]) == 64
    capsys.readouterr()


def test_compare_walk(lp_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["compare", lp_file(WALK_TEXT), "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert doc["verdict"] == "feasible"
    assert doc["artificial_free"]["pivots"] == 3
    assert doc["traditional"]["pivots"] == 5
    assert doc["corners_equal"] is True


@pytest.mark.parametrize("budget", ["3", "4"])
def test_compare_under_a_pivot_budget_exits_three(lp_file, tmp_path, capsys, budget):
    # The artificial-free method is feasible within the budget; the
    # traditional one is still pivoting when the budget runs out.
    report_path = tmp_path / "report.json"
    argv = ["compare", lp_file(WALK_TEXT), "--max-iters", budget, "--report", str(report_path)]
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert doc["verdict"] == "iteration_limit"
    assert doc["artificial_free"]["verdict"] == "feasible"
    assert doc["traditional"]["verdict"] == "iteration_limit"


def test_compare_infeasible_exit_one(lp_file, capsys):
    assert main(["compare", lp_file(STRIP_TEXT), "--quiet"]) == 1
    assert capsys.readouterr().out == ""


def test_gen_is_deterministic(capsys):
    args = ["gen", "--seed", "7", "--rows", "3", "--cols", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--seed", "8", "--rows", "3", "--cols", "2"]) == 0
    assert capsys.readouterr().out != first


def test_gen_out_file_then_solve(tmp_path, capsys):
    path = tmp_path / "random.lp"
    args = ["gen", "--seed", "11", "--rows", "4", "--cols", "3",
            "--shape", "infeasible-biased", "--out", str(path)]
    assert main(args) == 0
    assert capsys.readouterr().out == ""
    assert main(["solve", str(path), "--quiet"]) == 1


def test_gen_rejects_bad_arguments(capsys):
    assert main(["gen", "--seed", "1", "--rows", "0", "--cols", "2"]) == 64
    capsys.readouterr()
    # (0, 0) allows only all-zero rows, which the generator would redraw forever
    for lo, hi in (("3", "1"), ("0", "0")):
        assert main(["gen", "--seed", "1", "--rows", "2", "--cols", "2",
                     "--coeff-lo", lo, "--coeff-hi", hi]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("afsimplex: --coeff-")
        assert captured.out == ""


def test_oracle_exit_codes(lp_file, capsys):
    assert main(["oracle", lp_file(BOX_TEXT)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal_value"] == {"num": 5, "den": 1}
    assert main(["oracle", lp_file(STRIP_TEXT)]) == 1
    assert main(["oracle", lp_file(WALK_TEXT)]) == 2
    capsys.readouterr()


def test_oracle_guard_refusal(lp_file, capsys):
    assert main(["oracle", lp_file(WALK_TEXT), "--guard", "5"]) == 64
    assert "afsimplex:" in capsys.readouterr().err


def test_oracle_guard_counts_the_walks_row_updates(lp_file, capsys):
    assert main(["oracle", lp_file(x1_bounds_text(120))]) == 0
    # 241 bases, but 229,200 row updates
    assert main(["oracle", lp_file(x1_bounds_text(240)), "--guard", "200000"]) == 64
    assert "exceed guard" in capsys.readouterr().err


@pytest.mark.parametrize("guard", ["0", "-5"])
def test_oracle_guard_below_one_is_usage_error(lp_file, capsys, guard):
    assert main(["oracle", lp_file(WALK_TEXT), "--guard", guard]) == 64
    captured = capsys.readouterr()
    assert captured.err == "afsimplex: --guard must be at least 1\n"
    assert captured.out == ""


def test_console_script_smoke(tmp_path):
    path = tmp_path / "walk.lp"
    path.write_text(WALK_TEXT, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "afsimplex.cli", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "unbounded"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command",
    [
        ["solve", "{lp}"],
        ["compare", "{lp}"],
        ["gen", "--seed", "1", "--rows", "2", "--cols", "2"],
        ["oracle", "{lp}"],
    ],
    ids=["solve", "compare", "gen", "oracle"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_that_cannot_be_written_is_usage_error(lp_file, monkeypatch, command,
                                                      unbuffered):
    # Buffered, the failed flush leaves its bytes behind for the flush at exit,
    # which must not fail again (exit 120 with "Exception ignored" on stderr).
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    argv = [arg.format(lp=lp_file(WALK_TEXT)) for arg in command]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "afsimplex.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 64
    assert proc.stderr.startswith("afsimplex: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [["--help"], ["solve", "-h"]], ids=["top", "solve"])
def test_help_that_cannot_be_written_is_usage_error(command):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "afsimplex.cli", *command],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 64
    assert proc.stderr.startswith("afsimplex: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1


def test_closed_stdout_is_usage_error():
    # Started with file descriptor 1 closed, Python sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "afsimplex.cli", "solve", "demos/walk.lp"],
        cwd=os.path.join(os.path.dirname(__file__), os.pardir),
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.returncode == 64
    assert proc.stderr == "afsimplex: cannot write standard output: it is closed\n"


def test_help_and_usage_go_to_stdout(capsys, monkeypatch):
    with pytest.raises(SystemExit) as stop:
        main(["solve", "-h"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: afsimplex solve [-h]")
    _build_parser().print_usage()
    assert capsys.readouterr().out == _build_parser().format_usage()
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["--help"]) == 64
    assert capsys.readouterr().err == "afsimplex: cannot write standard output: it is closed\n"


# Every option string of each subcommand, and the fields of SolveConfig: a
# flag or knob dropped, renamed or added has to change this table as well.
CLI_SURFACE = {
    "compare": ["--eps", "--help", "--max-iters", "--numeric", "--quiet", "--report",
                "--tie", "-h", "file"],
    "gen": ["--coeff-hi", "--coeff-lo", "--cols", "--help", "--out", "--rows", "--seed",
            "--shape", "-h"],
    "oracle": ["--guard", "--help", "-h", "file"],
    "solve": ["--eps", "--help", "--max-iters", "--method", "--numeric", "--quiet",
              "--tie", "--trace", "--trick", "-h", "file"],
}
SOLVE_CONFIG_FIELDS = ["tie_break", "max_iterations", "use_trick"]


def test_cli_surface_is_pinned():
    # argparse lists a parser's arguments only in its private `_actions`; the
    # subcommands are the one action whose choices map names to parsers.
    (commands,) = (
        action for action in _build_parser()._actions if isinstance(action.choices, dict)
    )
    surface = {
        name: sorted(s for a in sub._actions for s in a.option_strings or [a.dest])
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE
    assert [f.name for f in dataclasses.fields(SolveConfig)] == SOLVE_CONFIG_FIELDS


@pytest.mark.parametrize("eps", ["0", "nan", "-0.5", "inf"])
def test_float_eps_must_be_positive(lp_file, capsys, eps):
    path = lp_file(BOX_TEXT)
    assert main(["solve", path, "--numeric", "float", "--eps", eps]) == 64
    assert main(["compare", path, "--numeric", "float", "--eps", eps]) == 64
    err = capsys.readouterr().err
    assert err.startswith("afsimplex: --eps")
    assert "Traceback" not in err


def test_negative_max_iters_is_usage_error(lp_file, capsys):
    path = lp_file(BOX_TEXT)
    assert main(["solve", path, "--max-iters", "-1"]) == 64
    assert main(["compare", path, "--max-iters", "-1"]) == 64
    assert "--max-iters" in capsys.readouterr().err
    assert main(["solve", path, "--max-iters", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "number, numeric",
    [
        ("1" * 4301, "rational"),
        ("1." + "5" * 4301, "rational"),
        ("1/" + "3" * 4301, "rational"),
        ("1" * 4301, "float"),
        ("1" + "0" * 400, "float"),
    ],
)
def test_unreadable_number_is_data_error(lp_file, capsys, number, numeric):
    path = lp_file(f"max: x1;\nc1: {number} x1 <= 1;\n")
    assert main(["solve", path, "--numeric", numeric]) == 65
    err = capsys.readouterr().err
    assert "line 2, column 5" in err
    assert "cannot read number" in err


def test_solve_emits_values_past_the_int_digit_limit(lp_file, capsys):
    # Both rows bind at the optimum, whose values have about 6,000 digits.
    rng = random.Random(7)
    a, b, c, d = (rng.randrange(10**2999, 2 * 10**2999) for _ in range(4))
    text = f"max: x1 + x2;\nc1: {2 * a} x1 + {b} x2 <= 1;\nc2: {c} x1 + {2 * d} x2 <= 1;\n"
    out = solve(standardize(parse_lp(text)))
    assert out.objective.denominator.bit_length() > 4300 * 3.33  # > 4,300 digits
    limit = sys.get_int_max_str_digits()
    assert main(["solve", lp_file(text)]) == 0
    assert sys.get_int_max_str_digits() == limit
    emitted = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(emitted)
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["status"] == "optimal"
    assert Fraction(doc["objective"]["num"], doc["objective"]["den"]) == out.objective
    assert {v["var"]: Fraction(v["num"], v["den"]) for v in doc["solution"]} == out.solution
    # Input numbers past the limit are still refused.
    assert main(["solve", lp_file(f"max: x1;\nc1: {'1' * 4301} x1 <= 1;\n", "long.lp")]) == 65
    capsys.readouterr()


BREAKDOWN_1 = (
    "max: 5 x1 + 8 x2;\nc1: 5 x1 + 9 x2 >= 27;\nc2: -7 x1 + 9 x2 <= 27;\n"
    "c3: -2 x1 + x2 >= 3;\nc4: -2 x1 - 5 x2 <= -13;\n"
)
BREAKDOWN_2 = (
    "max: -9 x1 - 5 x2 + 0 x3 + 9 x4;\nc1: 3 x1 - 6 x2 - 5 x3 - 3 x4 >= -19;\n"
    "c2: x1 - x2 + 4 x3 + 3 x4 >= 17;\n"
)
BREAKDOWN_3 = "min: 4 x1;\nc1: 8 x1 <= 23;\nc2: 8 x1 >= 25;\n"
BREAKDOWN_4 = (
    "max: -6 x1;\nc1: 6 x1 >= 7;\nc2: 7 x1 >= 12;\nc3: 9 x1 >= 17;\n"
    "c4: -3 x1 <= -1;\nc5: -x1 >= -8;\n"
)
BREAKDOWN_TRICK = "max: x1;\nc1: 9 x1 >= 9;\nc2: 8 x1 >= 8;\n"
BREAKDOWN_BAND = "".join(
    ["max: x1;\n"] + [f"c{i}: 6/10000000000 x1 >= 1;\n" for i in (1, 2, 3)]
)


@pytest.mark.parametrize(
    "text, eps, args, exact_code",
    [
        # a tiny eps: phase 2 meets a rhs of -1.09e-15, and the methods disagree
        (BREAKDOWN_1, "1e-15", ["solve"], 0),
        (BREAKDOWN_1, "1e-15", ["compare"], 0),
        # phase 2's ratio test skips an entry counted as zero and drives its row negative
        (BREAKDOWN_2, "0.25", ["solve"], 0),
        # an artificial row whose entries all count as zero
        (BREAKDOWN_3, "2", ["solve", "--method", "trad"], 1),
        (BREAKDOWN_3, "2", ["compare"], 1),
        # W prices a column in which no row is eligible
        (BREAKDOWN_4, "2", ["solve"], 0),
        (BREAKDOWN_4, "2", ["compare"], 0),
        # the shortcut's pivot entry, -1, counts as zero
        (BREAKDOWN_TRICK, "1", ["solve", "--method", "trad", "--trick"], 2),
        # every entry inside the band, their sum below it: no row is eligible
        (BREAKDOWN_BAND, "1e-9", ["solve"], 2),
        (BREAKDOWN_BAND, "1e-9", ["solve", "--method", "trad"], 2),
    ],
    ids=[
        "1-solve", "1-compare", "2-solve", "3-trad", "3-compare", "4-solve", "4-compare",
        "trick", "band-af", "band-trad",
    ],
)
def test_float_breakdown_is_data_error(lp_file, capsys, text, eps, args, exact_code):
    path = lp_file(text)
    command, *rest = args
    assert main([command, path, *rest, "--numeric", "float", "--eps", eps]) == 65
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"afsimplex: {path}: float arithmetic broke down at --eps {float(eps)} ("
    )
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert main([command, path, *rest, "--quiet"]) == exact_code


def test_exact_breakdown_stays_a_traceback(lp_file, monkeypatch, capsys):
    # In exact mode these errors can only mean a bug, so main lets them out.
    def broken(*args):
        raise RuntimeError("internal error")

    monkeypatch.setattr("afsimplex.cli.compare", broken)
    path = lp_file(BOX_TEXT)
    with pytest.raises(RuntimeError, match="internal error"):
        main(["compare", path])
    assert main(["compare", path, "--numeric", "float", "--quiet"]) == 65
    # the message names the default tolerance
    assert capsys.readouterr().err == (
        f"afsimplex: {path}: float arithmetic broke down at --eps 1e-09 (internal error)\n"
    )


def test_float_overflow_is_data_error(lp_file, tmp_path, capsys):
    # Float pivots on these 1e300 coefficients overflow to inf, which has no
    # exact ratio to write; rational mode solves the same file.
    big = "1" + "0" * 300
    path = lp_file(
        f"max: {big} x + {big} y;\n"
        f"c1: 0.000001 x + y <= {big};\nc2: x + 0.000001 y <= {big};\n"
    )
    trace = tmp_path / "trace.json"
    for extra in ([], ["--quiet"], ["--trace", str(trace)]):
        assert main(["solve", path, "--numeric", "float", *extra]) == 65
        captured = capsys.readouterr()
        assert captured.err.startswith(f"afsimplex: {path}: float arithmetic overflowed")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    assert not trace.exists()
    assert main(["solve", path, "--quiet"]) == 0


@pytest.mark.parametrize(
    "args, flag",
    [
        (["solve", "--trick"], "--trick"),
        (["solve", "--method", "af", "--trick"], "--trick"),
        (["solve", "--eps", "1e-6"], "--eps"),
        (["solve", "--numeric", "rational", "--eps", "1e-6"], "--eps"),
        (["compare", "--eps", "1e-6"], "--eps"),
    ],
    ids=["trick", "trick-af", "eps-solve", "eps-rational", "eps-compare"],
)
def test_flag_that_would_be_ignored_is_usage_error(lp_file, capsys, args, flag):
    command, *rest = args
    assert main([command, lp_file(WALK_TEXT), *rest]) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith(f"afsimplex: {flag} needs ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
