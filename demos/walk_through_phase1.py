#! /usr/bin/env python3
"""Watch phase 1 repair infeasibility without artificial variables.

The problem starts at the origin with four violated constraints.  Each
step prices the nonbasic columns by summing the violated rows, enters
the most negative column, and picks the leaving row so that no feasible
row is sacrificed.  The violation total drops 64 -> 28 -> 4 -> 0 in
three pivots, and phase 2 then discovers the problem is unbounded.
"""

import pathlib

from afsimplex import (
    Method,
    SolveConfig,
    Status,
    TieBreak,
    infeasibility_sum,
    infeasible_rows,
    initial_dictionary,
    parse_lp,
    phase1_step,
    solve,
    standardize,
)
from afsimplex.phase1 import phase1_objective_vector

here = pathlib.Path(__file__).parent
sp = standardize(parse_lp((here / "walk.lp").read_text()))
d = initial_dictionary(sp)

print("corner, violation total and pricing vector at every step")
print("---------------------------------------------------------")
step = 0
while True:
    decision = phase1_step(d, tie_break=TieBreak.SMALLEST_ABS_PIVOT)
    corner = tuple(str(v) for v in d.corner())
    print(f"step {step}: corner {corner}, violation {infeasibility_sum(d)}")
    if decision.entering_column is None:
        break
    w = tuple(str(x) for x in phase1_objective_vector(d, infeasible_rows(d)))
    entering = d.column_label(decision.entering_column).name
    leaving = d.row_label(decision.leaving_row).name
    print(f"        pricing {w}: {entering} enters, {leaving} leaves, "
          f"step length {decision.ratio}")
    d = d.pivot(decision.leaving_row, decision.entering_column)
    step += 1

# The full driver repeats the walk above, then runs phase 2.
out = solve(sp, Method.ARTIFICIAL_FREE,
            SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT))
assert out.status is Status.UNBOUNDED
ray = {name: str(v) for name, v in out.certificates.ray.items()}
print()
print(f"phase 2 verdict: {out.status.value}")
print(f"improving feasible ray: {ray}")
