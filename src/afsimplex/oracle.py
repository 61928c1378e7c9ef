"""Ground-truth checker: exhaustive enumeration of basic solutions.

Deliberately shares no code path with the simplex machinery: it imports
only the standard library, `.model` and `.numeric`.  The constraint
system A x <= b, x >= 0 is rewritten as [A | I] y = b with y >= 0 and
row-scaled to integers; every m-subset of columns is a candidate basis B.
The subsets are walked depth first over basis prefixes, in increasing
column order, with an explicit stack.  Each step adds one column by one
integer-preserving Gauss-Jordan step on [A | I | b] (Edmonds/Bareiss), so
a prefix is eliminated once for all of its extensions, and a column with
no nonzero entry in any unpivoted row prunes every superset.  A prefix
also pushes no extensions when one of its rows cannot hold.  Every column
outside the basis is 0, so row i reads sum a_ik*y_k = rhs_i over the
prefix's columns and the columns after its last, with y >= 0; when
rhs_i != 0 and none of those entries shares its sign, no basis that
extends the prefix is feasible.  In Gauss-Jordan form a prefix column is
0 outside its own pivot row and holds the last pivot there, so the test
reads only the later columns and, on a pivot row, that pivot.  At the last
column the right-hand side alone decides feasibility, before any row is
built; most bases fail there.  At a feasible basis every nonbasic column
is already reduced, and each is tested as an edge direction for a
feasible, objective-improving ray until one is found.  Vertices are
told apart by an integer key, det and det·x over their gcd, so
Fractions are built only for each distinct vertex: its coordinates and
its objective value, once, however many bases share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Optional

from .model import StandardProblem
from .numeric import ExactMode


class TooLarge(ValueError):
    """The basis count, or the walk's work, exceeds the enumeration guard."""


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


def _integers(values, mode: ExactMode) -> tuple[list[int], int]:
    """(numerators, scale): the values times their least common
    denominator.  Entries other than ints and Fractions go through
    `mode.coerce`, which refuses a float."""
    fracs = [x if isinstance(x, (int, Fraction)) else mode.coerce(x) for x in values]
    scale = lcm(*[x.denominator for x in fracs])
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def _integer_rows(sp: StandardProblem) -> list[list[int]]:
    """Row-scale [A | I | b] to integers (scaling keeps the x-geometry)."""
    rows: list[list[int]] = []
    for i in range(sp.m):
        (*coeffs, rhs), scale = _integers((*sp.A[i], sp.b[i]), sp.mode)
        slack_part = [scale if k == i else 0 for k in range(sp.m)]
        rows.append(coeffs + slack_part + [rhs])
    return rows


def _pivot(a: list[list[int]], r: int, j: int, prev: int) -> list[list[int]]:
    """One integer-preserving Gauss-Jordan step on row r, column j: every
    other row becomes (x*p - f*y) / prev, which divides exactly because
    each entry is a minor of the starting matrix (Sylvester's identity).
    The pivot row is shared, not copied; no row is ever mutated."""
    pivot_row = a[r]
    p = pivot_row[j]
    out = []
    for i, row in enumerate(a):
        f = row[j]
        if i == r or (f == 0 and p == prev):
            out.append(row)
        else:
            out.append([(x * p - f * y) // prev for x, y in zip(row, pivot_row)])
    return out


def enumerate_vertices(sp: StandardProblem, guard: int = 10**6) -> OracleResult:
    """Enumerate all basic solutions of the slack-augmented system.

    Raises TooLarge when C(m+p, m) exceeds `guard`, or during the walk
    once its Gauss-Jordan steps times m (each step walks all m rows)
    exceed `guard`.  Exact mode only: the whole point of the oracle is
    bit-for-bit comparability.
    """
    if not isinstance(sp.mode, ExactMode):
        raise ValueError("the enumeration oracle runs in exact mode only")
    m = sp.m
    total_cols = m + sp.p
    if comb(total_cols, m) > guard:
        raise TooLarge(
            f"C({total_cols}, {m}) = {comb(total_cols, m)} bases exceeds guard {guard}"
        )

    steps = 0

    def step(a: list[list[int]], r: int, j: int, prev: int) -> list[list[int]]:
        nonlocal steps
        steps += 1
        if steps * m > guard:
            raise TooLarge(f"the walk's {steps} steps of {m} rows exceed guard {guard}")
        return _pivot(a, r, j, prev)

    c, c_den = _integers(sp.c, sp.mode)
    c += [0] * m  # c_den * c, slacks 0

    feasible = unbounded = False
    # (det, det * x) over their gcd, det > 0 -> the vertex x as Fractions
    vertices: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    best: Optional[Fraction] = None
    best_vertex: Optional[tuple[Fraction, ...]] = None

    # A frame is a basis prefix: its columns, the row each one pivoted on,
    # the rows still free (a dict: in order, with O(1) membership), the
    # matrix after those steps and the last pivot.  Children are pushed in
    # decreasing column order, so bases are visited in increasing order.
    stack = [((), (), dict.fromkeys(range(m)), _integer_rows(sp), 1)]
    while stack:
        cols, pivots, free, a, prev = stack.pop()
        first = cols[-1] + 1 if cols else 0
        if len(free) > 1:
            # Row i reads (prev * y_c, if i pivots the prefix column c)
            # + row[first:-1] . y = rhs_i in every extension, with y >= 0:
            # no extension is feasible if nothing can match the sign of rhs_i.
            if any(
                row[-1]
                and (row[-1] * prev < 0 or i in free)
                and (max(row[first:-1]) <= 0 if row[-1] > 0 else min(row[first:-1]) >= 0)
                for i, row in enumerate(a)
            ):
                continue
            for j in range(total_cols - len(free), first - 1, -1):
                # No nonzero entry in a free row: every basis holding this
                # prefix and j is singular.
                r = next((i for i in free if a[i][j]), None)
                if r is not None:
                    rest = free.copy()
                    del rest[r]
                    stack.append((cols + (j,), pivots + (r,), rest, step(a, r, j, prev), a[r][j]))
            continue

        (r,) = free
        b_r = a[r][-1]
        for j in range(first, total_cols):
            # The last step leaves x_r = b_r / p and every other
            # x_i = (b_i*p - f_i*b_r) / (prev*p), so the signs of the
            # right-hand side decide feasibility before any row is built.
            p = a[r][j]
            if p == 0 or b_r * p < 0:
                continue
            sign = p * prev
            if any((row[-1] * p - row[j] * b_r) * sign < 0 for row in a):
                continue
            feasible = True
            det, done = p, step(a, r, j, prev)
            basis = dict(zip(cols + (j,), pivots + (r,)))  # basic column -> its row
            x = {k: done[i][-1] for k, i in basis.items()}  # det * x_B
            coords = [x.get(k, 0) for k in range(sp.p)]
            g = gcd(det, *coords) if det > 0 else -gcd(det, *coords)
            key = (det // g, *[v // g for v in coords])
            if key not in vertices:
                # A vertex seen before has already had its turn at best.
                vertex = vertices[key] = tuple([Fraction(v, det) for v in coords])
                value = Fraction(sum(c[k] * v for k, v in x.items()), c_den * det)
                if best is None or value > best or (value == best and vertex < best_vertex):
                    best, best_vertex = value, vertex
            # Nonbasic column k holds det * (the basis response to raising
            # x_k), and its reduced cost is (c_k*det - gain) / (c_den*det).
            # The flag never turns false, so once set no edge is tested.
            unbounded = unbounded or any(
                all(row[k] * det <= 0 for row in done)
                and (c[k] * det - sum(c[b] * done[i][k] for b, i in basis.items())) * det > 0
                for k in range(total_cols)
                if k not in basis
            )

    if unbounded:
        best, best_vertex = None, None
    if best is not None and sp.negated_objective:
        best = -best
    return OracleResult(
        feasible=feasible,
        unbounded=unbounded,
        optimal_value=best,
        optimal_vertex=best_vertex,
        vertices=tuple(sorted(vertices.values())),
    )
