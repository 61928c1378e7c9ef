"""Pin the reference answers the benchmark checks every run against.

Solves every problem of every workload once in exact arithmetic with the
artificial-free method and writes status, objective and solution to
``references.json``.  Relabelling does not change an answer, so one
reference per problem serves every seed.  The float ladder takes minutes
here, because its n=100 problems are solved exactly.

    PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys

from afsimplex import Method, solve, standardize

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "references.json")


def answer(problem) -> dict:
    outcome = solve(standardize(problem.generate()), Method.ARTIFICIAL_FREE)
    entry = {"status": outcome.status.value}
    if outcome.objective is not None:
        entry["objective"] = str(outcome.objective)
        entry["solution"] = {v: str(x) for v, x in outcome.solution.items()}
    return entry


def main() -> int:
    refs = {}
    for workload in WORKLOADS.values():
        for problem in workload.problems():
            if problem.key not in refs:
                refs[problem.key] = answer(problem)
                print(problem.key, refs[problem.key]["status"], file=sys.stderr, flush=True)
    with open(PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
