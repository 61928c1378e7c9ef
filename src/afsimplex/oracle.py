"""Ground-truth checker: exhaustive enumeration of basic solutions.

Deliberately shares no code path with the simplex machinery: it imports
only the standard library, `.model` and `.numeric`.  The constraint
system A x <= b, x >= 0 is rewritten as [A | I] y = b with y >= 0 and
row-scaled to integers; every m-subset of columns is a candidate basis B.
Feasibility comes first.  One fraction-free elimination of [B | b] gives
x_B as integer numerators over det, and the subset is dropped when B is
singular or x_B has a negative entry, as most are.  Only at a feasible
basis are the nonbasic columns solved as well, to test every edge
direction for a feasible, objective-improving ray until one is found.
Fractions are built only for vertex coordinates and for the reduced cost
of a candidate ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Optional

from .model import StandardProblem
from .numeric import ExactMode


class TooLarge(ValueError):
    """The basis count exceeds the enumeration guard."""


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    unbounded: bool
    # Reported in the problem's original sense (a minimum for min input),
    # matching what solve() reports for the same file.  None unless
    # feasible and bounded.
    optimal_value: Optional[Fraction]
    optimal_vertex: Optional[tuple[Fraction, ...]]
    vertices: tuple[tuple[Fraction, ...], ...]  # distinct, sorted


def _integer_rows(sp: StandardProblem) -> tuple[list[list[int]], list[int]]:
    """Row-scale [A | I] and b to integers (scaling keeps the x-geometry)."""
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(sp.m):
        values = [Fraction(x) for x in sp.A[i]] + [Fraction(sp.b[i])]
        scale = lcm(*(v.denominator for v in values))
        row = [int(v * scale) for v in values[:-1]]
        slack_part = [scale if k == i else 0 for k in range(sp.m)]
        rows.append(row + slack_part)
        rhs.append(int(values[-1] * scale))
    return rows, rhs


def _solve_subset(
    matrix: list[list[int]], width: int
) -> Optional[tuple[int, list[list[int]]]]:
    """Solve an integer system whose first `width` columns must be
    invertible, fraction-free (Bareiss) throughout.  Returns (det, X) with
    one list of integer numerators per augmented column, so x = X / det
    exactly, or None when singular; det is the last Bareiss pivot, the
    determinant of the row-permuted system."""
    a = [row[:] for row in matrix]
    total = len(a[0])
    prev = 1
    for k in range(width):
        pivot_row = next((i for i in range(k, width) if a[i][k] != 0), None)
        if pivot_row is None:
            return None
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k]
        for row in a[k + 1:]:  # entries left of k + 1 are never read again
            for j in range(k + 1, total):
                row[j], rest = divmod(row[j] * pivot[k] - row[k] * pivot[j], prev)
                assert rest == 0
        prev = pivot[k]

    # det * x is integral (Cramer), so every back-substitution step divides
    # exactly as well.
    numerators: list[list[int]] = []
    for col in range(width, total):
        x = [0] * width
        for i in range(width - 1, -1, -1):
            acc = prev * a[i][col] - sum(a[i][j] * x[j] for j in range(i + 1, width))
            x[i], rest = divmod(acc, a[i][i])
            assert rest == 0
        numerators.append(x)
    return prev, numerators


def enumerate_vertices(sp: StandardProblem, guard: int = 10**6) -> OracleResult:
    """Enumerate all basic solutions of the slack-augmented system.

    Raises TooLarge when C(m+p, m) exceeds `guard`.  Exact mode only:
    the whole point of the oracle is bit-for-bit comparability.
    """
    if not isinstance(sp.mode, ExactMode):
        raise ValueError("the enumeration oracle runs in exact mode only")
    m, p = sp.m, sp.p
    total_cols = m + p
    if comb(total_cols, m) > guard:
        raise TooLarge(
            f"C({total_cols}, {m}) = {comb(total_cols, m)} bases exceeds guard {guard}"
        )

    rows, rhs = _integer_rows(sp)
    c_ext = [Fraction(x) for x in sp.c] + [Fraction(0)] * m

    feasible = False
    unbounded = False
    vertices: set[tuple[Fraction, ...]] = set()
    best: Optional[Fraction] = None
    best_vertex: Optional[tuple[Fraction, ...]] = None

    for subset in combinations(range(total_cols), m):
        basis = [[rows[i][j] for j in subset] for i in range(m)]
        solved = _solve_subset([basis[i] + [rhs[i]] for i in range(m)], m)
        if solved is None:
            continue
        det, (x_basis,) = solved
        if any(v * det < 0 for v in x_basis):  # sign(x) = sign(X) * sign(det)
            continue
        feasible = True

        full = [Fraction(0)] * total_cols
        for pos, j in enumerate(subset):
            full[j] = Fraction(x_basis[pos], det)
        vertex = tuple(full[:p])
        vertices.add(vertex)
        value = sum((sp.c[j] * full[j] for j in range(p)), Fraction(0))
        if best is None or value > best or (value == best and vertex < best_vertex):
            best, best_vertex = value, vertex

        if unbounded:
            continue  # the flag never turns false; no edge can change anything
        others = [j for j in range(total_cols) if j not in subset]
        det, edges = _solve_subset(
            [basis[i] + [rows[i][j] for j in others] for i in range(m)], m
        )
        for j, y in zip(others, edges):  # basis response to raising column j
            if all(v * det <= 0 for v in y):
                reduced = c_ext[j] - sum(c_ext[subset[k]] * y[k] for k in range(m)) / det
                if reduced > 0:
                    unbounded = True

    if unbounded:
        best, best_vertex = None, None
    if best is not None and sp.negated_objective:
        best = -best
    return OracleResult(
        feasible=feasible,
        unbounded=unbounded,
        optimal_value=best,
        optimal_vertex=best_vertex,
        vertices=tuple(sorted(vertices)),
    )
