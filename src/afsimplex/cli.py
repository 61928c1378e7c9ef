"""Command line front end.

Exit codes: 0 optimal, 1 infeasible, 2 unbounded, 3 stopped by a
safeguard (cycle detection or the iteration budget), 64 usage errors
(including unreadable input and output files or standard output that
cannot be written), 65 malformed LP input (including input that is not
UTF-8, and float-mode input that overflows to a value that is not finite
or breaks down at its --eps).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .dictionary import ZeroPivot
from .generate import Shape, generate_lp
from .harness import Method, compare, solve
from .jsonout import emit_oracle_json, emit_outcome_json, emit_report_json
from .lpformat import ParseError, format_lp, parse_lp
from .model import EmptyProblem, StandardProblem, standardize
from .numeric import EXACT, FloatMode, NumericMode
from .oracle import TooLarge, enumerate_vertices
from .phase2 import NotPrimalFeasible
from .trace import SolveConfig, Status, TieBreak

EX_OK = 0
EX_INFEASIBLE = 1
EX_UNBOUNDED = 2
EX_SAFEGUARD = 3
EX_USAGE = 64
EX_DATA = 65


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2), and writes help
    and usage meant for standard output through _write."""

    def error(self, message: str):
        raise _UsageError(message)

    def print_help(self, file=None) -> None:
        if file is None:
            _write(None, self.format_help())
        else:
            super().print_help(file)

    def print_usage(self, file=None) -> None:
        if file is None:
            _write(None, self.format_usage())
        else:
            super().print_usage(file)


def _build_parser() -> _Parser:
    parser = _Parser(prog="afsimplex", description="Two-method LP solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, out_flag: str, out_help: str) -> None:
        """The flags solve and compare share; out_flag stores to args.out."""
        p.add_argument("file", help="LP input file")
        p.add_argument(out_flag, dest="out", metavar="OUT.json", help=out_help)
        p.add_argument("--quiet", action="store_true",
                       help="suppress stdout, keep the exit code")
        p.add_argument(
            "--tie",
            choices=[t.value for t in TieBreak],
            default=TieBreak.SMALLEST_LABEL.value,
            help="ratio-test tie rule (default: smallest-label)",
        )
        p.add_argument(
            "--max-iters",
            type=int,
            metavar="N",
            help="override the pivot budget",
        )
        p.add_argument(
            "--numeric",
            choices=["rational", "float"],
            default="rational",
            help="arithmetic backend (default: rational)",
        )
        p.add_argument(
            "--eps",
            type=float,
            help="sign tolerance for --numeric float (default: 1e-9)",
        )

    p_solve = sub.add_parser("solve", help="solve one LP file")
    p_solve.set_defaults(handler=_cmd_solve)
    add_run_flags(p_solve, "--trace", "write the full pivot trace to a JSON file")
    p_solve.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=Method.ARTIFICIAL_FREE.value,
        help="phase 1 variant (default: af)",
    )
    p_solve.add_argument("--trick", action="store_true",
                         help="let the traditional method shortcut zero artificials")

    p_cmp = sub.add_parser("compare", help="run both phase 1 methods side by side")
    p_cmp.set_defaults(handler=_cmd_compare)
    add_run_flags(p_cmp, "--report", "write the comparison report to a JSON file")

    p_gen = sub.add_parser("gen", help="generate a random LP file")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--cols", type=int, required=True)
    p_gen.add_argument(
        "--shape",
        choices=[s.value for s in Shape],
        default=Shape.FEASIBLE_BIASED.value,
        help="instance family (default: feasible-biased)",
    )
    p_gen.add_argument("--coeff-lo", type=int, default=-9, metavar="LO")
    p_gen.add_argument("--coeff-hi", type=int, default=9, metavar="HI")
    p_gen.add_argument("--out", metavar="FILE", help="write here instead of stdout")

    p_oracle = sub.add_parser("oracle", help="brute-force check a small LP file")
    p_oracle.set_defaults(handler=_cmd_oracle)
    p_oracle.add_argument("file", help="LP input file")
    p_oracle.add_argument("--guard", type=int, default=10**6,
                          help="refuse instances with more basis subsets than this, or "
                               "whose walk takes more than this many row updates")

    return parser


def _make_mode(args) -> NumericMode:
    if args.eps is None:
        return FloatMode() if args.numeric == "float" else EXACT
    if args.numeric != "float":
        raise _UsageError("--eps needs --numeric float")
    try:
        return FloatMode(eps=args.eps)
    except ValueError as exc:
        raise _UsageError(f"--eps {args.eps}: {exc}") from exc


def _make_config(args) -> SolveConfig:
    if args.max_iters is not None and args.max_iters < 0:
        raise _UsageError("--max-iters must not be negative")
    use_trick = getattr(args, "trick", False)
    if use_trick and args.method != Method.TRADITIONAL.value:
        raise _UsageError("--trick needs --method trad")
    return SolveConfig(
        tie_break=TieBreak(args.tie),
        max_iterations=args.max_iters,
        use_trick=use_trick,
    )


def _read_problem(path: str, mode: NumericMode) -> StandardProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _DataError(f"{path}: not UTF-8 text at byte offset {exc.start}") from exc
    return standardize(parse_lp(text, mode))


def _write(path: Optional[str], text: str) -> None:
    """Write text to the file at path, or to standard output when path is
    None or empty."""
    if not path and sys.stdout is None:
        # Python sets sys.stdout to None when the process starts with it closed.
        raise _UsageError("cannot write standard output: it is closed")
    try:
        if path:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            # The failed flush keeps its bytes buffered, and the flush at exit
            # would fail on them again: send them to the null device instead.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = path or "standard output"
        raise _UsageError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _run(args, method):
    """Read args.file and return method(sp, config).  A breakdown under
    the float sign tolerance is a data error; in exact mode only a bug
    can cause one, so it stays a traceback."""
    mode = _make_mode(args)
    sp = _read_problem(args.file, mode)
    config = _make_config(args)
    try:
        return method(sp, config)
    except (NotPrimalFeasible, RuntimeError, ZeroPivot) as exc:
        if mode is EXACT:
            raise
        raise _DataError(
            f"{args.file}: float arithmetic broke down at --eps {mode.eps} ({exc})"
        ) from exc


# Every other status was stopped by a safeguard.
_EXIT_CODES = {Status.OPTIMAL: EX_OK, Status.FEASIBLE: EX_OK,
               Status.INFEASIBLE: EX_INFEASIBLE, Status.UNBOUNDED: EX_UNBOUNDED}


def _publish(args, emit, result, status: Status) -> int:
    """Write result as JSON to args.out, if given, and to stdout unless
    --quiet; return the exit code for status."""
    try:
        text = emit(result)
    except (OverflowError, ValueError) as exc:
        # A float that overflowed to inf (or became nan) has no exact ratio.
        raise _DataError(f"{args.file}: float arithmetic overflowed ({exc})") from exc
    if args.out:
        _write(args.out, text)
    if not args.quiet:
        _write(None, text)
    return _EXIT_CODES.get(status, EX_SAFEGUARD)


def _cmd_solve(args) -> int:
    outcome = _run(args, lambda sp, config: solve(sp, Method(args.method), config))
    return _publish(args, emit_outcome_json, outcome, outcome.status)


def _cmd_compare(args) -> int:
    report = _run(args, compare)
    return _publish(args, emit_report_json, report, report.verdict)


def _cmd_gen(args) -> int:
    if args.rows < 1 or args.cols < 1:
        raise _UsageError("--rows and --cols must be at least 1")
    try:
        gp = generate_lp(
            seed=args.seed,
            rows=args.rows,
            cols=args.cols,
            coeff_range=(args.coeff_lo, args.coeff_hi),
            shape=Shape(args.shape),
        )
    except ValueError as exc:
        bounds = f"--coeff-lo {args.coeff_lo} --coeff-hi {args.coeff_hi}"
        raise _UsageError(f"{bounds}: {exc}") from exc
    _write(args.out, format_lp(gp))
    return EX_OK


def _cmd_oracle(args) -> int:
    if args.guard < 1:
        raise _UsageError("--guard must be at least 1")
    sp = _read_problem(args.file, EXACT)
    try:
        result = enumerate_vertices(sp, guard=args.guard)
    except TooLarge as exc:
        raise _UsageError(str(exc)) from exc
    _write(None, emit_oracle_json(result))
    if not result.feasible:
        return EX_INFEASIBLE
    if result.unbounded:
        return EX_UNBOUNDED
    return EX_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, _DataError, ParseError, EmptyProblem) as exc:
        print(f"afsimplex: {exc}", file=sys.stderr)
        return EX_USAGE if isinstance(exc, _UsageError) else EX_DATA


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
