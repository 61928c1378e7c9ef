"""Benchmark workloads: which LP texts a run solves, and the calls it makes.

Every instance goes through the same public calls the command line makes:
``parse_lp`` -> ``standardize`` -> ``solve``/``compare`` (plus
``enumerate_vertices`` on the sweep) -> ``emit_*_json``.  The calls are
looked up on the library modules at call time, so the tracer in
``tracing.py`` can wrap them without the benchmark knowing.

The problems themselves are fixed: a ladder of ``generate_lp(1, n, n)``
instances, and the 540-instance grid of the acceptance sweep
(``tests/test_acceptance.py``).  The ``--seed`` of a run relabels each
problem: it shuffles the order of the constraints and of the variables
before the text is written.  A relabelled problem has the same answer and,
with the Dantzig rule, the same pivot path, so the work of a run does not
depend on the seed while the bytes the program parses do.  Drawing fresh
problems per seed instead spread the exact-ladder wall time by 31% of its
median over ten seeds, more than any regression bound could absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from afsimplex import generate, harness, jsonout, lpformat, model, oracle
from afsimplex.generate import Shape
from afsimplex.harness import Method
from afsimplex.model import GeneralProblem
from afsimplex.numeric import EXACT, FloatMode, NumericMode
from afsimplex.trace import SolveConfig

LADDER_SEED = 1
EXACT_SIZES = (20, 30, 40)
FLOAT_SIZES = (60, 80, 100)
FLOAT_EPS = 1e-9
SHAPES = (Shape.FEASIBLE_BIASED, Shape.INFEASIBLE_BIASED, Shape.DEGENERATE_BIASED)

CONFIG = SolveConfig()
TRICK = SolveConfig(use_trick=True)


@dataclass(frozen=True)
class Problem:
    """One generated problem, named by its generate_lp arguments."""

    seed: int
    rows: int
    cols: int
    shape: Shape

    @property
    def key(self) -> str:
        return f"{self.seed}/{self.rows}x{self.cols}/{self.shape.value}"

    def generate(self) -> GeneralProblem:
        return generate.generate_lp(self.seed, self.rows, self.cols, shape=self.shape)


@dataclass(frozen=True)
class Instance:
    """One unit of closed-loop work: an LP text and what to do with it."""

    problem: Problem
    text: str
    method: Method | None  # None: the sweep's oracle + every solver


@dataclass(frozen=True)
class Workload:
    name: str
    mode: NumericMode
    problems: Callable[[], list[Problem]]
    methods: tuple[Method | None, ...]


def ladder(sizes: tuple[int, ...]) -> list[Problem]:
    return [Problem(LADDER_SEED, n, n, shape) for n in sizes for shape in SHAPES]


def sweep_grid() -> list[Problem]:
    """The acceptance-sweep grid, in the fixture's order and seeds."""
    problems = []
    for rows in range(1, 7):
        for cols in range(1, 7):
            for shape in SHAPES:
                for _ in range(5):
                    problems.append(Problem(len(problems), rows, cols, shape))
    return problems


BOTH = (Method.ARTIFICIAL_FREE, Method.TRADITIONAL)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-ladder", EXACT, lambda: ladder(EXACT_SIZES), BOTH),
        Workload("float-ladder", FloatMode(FLOAT_EPS), lambda: ladder(FLOAT_SIZES), BOTH),
        Workload("oracle-sweep", EXACT, sweep_grid, (None,)),
    )
}


def relabel(gp: GeneralProblem, rng: random.Random) -> GeneralProblem:
    """The same problem with its constraints and variables reordered."""
    variables = list(gp.variables)
    rng.shuffle(variables)
    constraints = list(gp.constraints)
    rng.shuffle(constraints)
    return GeneralProblem(
        sense=gp.sense,
        objective={v: gp.objective[v] for v in variables},
        constraints=tuple(constraints),
        variables=tuple(variables),
    )


def build(workload: Workload, seed: int) -> list[Instance]:
    """The LP texts of one pass; the same seed gives the same texts."""
    instances = []
    for problem in workload.problems():
        rng = random.Random(f"{workload.name}:{seed}:{problem.key}")
        text = lpformat.format_lp(relabel(problem.generate(), rng))
        instances.extend(Instance(problem, text, method) for method in workload.methods)
    return instances


@dataclass(frozen=True)
class SolveResult:
    sp: object
    outcome: object
    emitted: str


@dataclass(frozen=True)
class SweepResult:
    sp: object
    truth: object
    af: object
    trad: object
    trick: object
    report: object
    emitted: tuple[str, ...]


def run_instance(instance: Instance, mode: NumericMode):
    """The timed path: exactly the calls `afsimplex solve`/`oracle`/`compare` make."""
    sp = model.standardize(lpformat.parse_lp(instance.text, mode))
    if instance.method is not None:
        outcome = harness.solve(sp, instance.method, CONFIG)
        return SolveResult(sp, outcome, jsonout.emit_outcome_json(outcome))
    truth = oracle.enumerate_vertices(sp)
    af = harness.solve(sp, Method.ARTIFICIAL_FREE, CONFIG)
    trad = harness.solve(sp, Method.TRADITIONAL, CONFIG)
    trick = harness.solve(sp, Method.TRADITIONAL, TRICK)
    report = harness.compare(sp, CONFIG)
    emitted = (
        jsonout.emit_oracle_json(truth),
        jsonout.emit_outcome_json(af),
        jsonout.emit_outcome_json(trad),
        jsonout.emit_outcome_json(trick),
        jsonout.emit_report_json(report),
    )
    return SweepResult(sp, truth, af, trad, trick, report, emitted)
