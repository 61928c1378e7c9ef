"""Acceptance gate: one test per shipped claim, in exact arithmetic except
for criterion 10, which holds float mode to exact mode.

Criteria 5 and 6 share one 540-instance random sweep (module-scoped
fixture) so the invariant monitor sees every pivot of the same runs that
are checked against the enumeration oracle; the paper's pivot counts and
the certificate checks are read off the same runs, and criterion 10
walks the same 540 instances in float mode under a second monitor.
"""

import json
import random
from fractions import Fraction as F

import pytest

from afsimplex.cli import main
from afsimplex.dictionary import Dictionary, initial_dictionary, slack, structural
from afsimplex.dual import run_dual_phase1
from afsimplex.generate import Shape, generate_lp
from afsimplex.harness import Method, compare, solve
from afsimplex.jsonout import emit_outcome_json
from afsimplex.lpformat import format_lp, parse_lp
from afsimplex.model import standardize
from afsimplex.numeric import FloatMode
from afsimplex.oracle import enumerate_vertices
from afsimplex.phase1 import InvariantMonitor, run_phase1
from afsimplex.trace import SolveConfig, Status, TieBreak
from afsimplex.traditional import (
    build_auxiliary,
    run_traditional_phase1,
    traditional_step,
)

from conftest import STRIP_TEXT, WALK_TEXT, problem_from, replayed_pricing

GOLDEN_CORNERS = ((F(0), F(0)), (F(4), F(0)), (F(4), F(3)), (F(2), F(6)))


def _af_golden_trace(walk_sp):
    cfg = SolveConfig(tie_break=TieBreak.SMALLEST_ABS_PIVOT)
    return run_phase1(initial_dictionary(walk_sp), cfg)


def test_criterion_1_artificial_free_golden_trace(walk_sp):
    d, status, trace = _af_golden_trace(walk_sp)
    assert status is Status.FEASIBLE
    assert trace.pivots == 3
    assert replayed_pricing(walk_sp, trace) == [
        (F(-9), F(-8)),
        (F(9), F(-8)),
        (F(-2), F(-1)),
    ]
    assert [(r.leaving.name, r.entering.name) for r in trace.records] == [
        ("w1", "x1"),
        ("w3", "x2"),
        ("w4", "w1"),
    ]
    assert trace.corners == GOLDEN_CORNERS
    assert d.objective_value == F(36)
    assert d.corner() == (F(2), F(6))
    print("criterion 1 PASS: 3 pivots, W and corner walk exact, z=36 at (2,6)")


def test_criterion_2_traditional_golden_trace(walk_sp):
    _, status, trace = run_traditional_phase1(build_auxiliary(walk_sp), SolveConfig())
    assert status is Status.FEASIBLE
    assert trace.pivots == 5
    assert trace.degenerate_pivots == 2
    af_trace = _af_golden_trace(walk_sp)[2]
    assert trace.deduplicated_corners() == af_trace.deduplicated_corners()
    assert trace.deduplicated_corners() == GOLDEN_CORNERS
    print("criterion 2 PASS: 5 pivots, 2 degenerate, same deduplicated corner walk")


def test_criterion_3_full_solve_unbounded_with_verified_ray(walk_sp):
    out = solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig())
    assert out.status is Status.UNBOUNDED
    ray = out.certificates.ray
    assert ray is not None
    vec = [ray.get(v, F(0)) for v in walk_sp.variables]
    assert any(x != 0 for x in vec)
    assert all(x >= 0 for x in vec)
    for row in walk_sp.A:
        assert sum(a * x for a, x in zip(row, vec)) <= 0
    assert sum(c * x for c, x in zip(walk_sp.c, vec)) > 0
    print("criterion 3 PASS: UNBOUNDED with A.ray <= 0 and c.ray > 0")


def _audit_trick_run(sp):
    """Run traditional phase 1 with the shortcut, bit-checking each
    shortcut pivot against the pre-pivot entries."""
    aux = build_auxiliary(sp)
    fired = 0
    while True:
        decision = traditional_step(aux, use_trick=True)
        if decision.status is not None:
            return decision.status, fired
        r, m = decision.leaving_row, decision.entering_column
        before = aux.inner.entries
        aux = aux.conjugate_pivot(r, m) if decision.via_conjugate else aux.pivot(r, m)
        if decision.via_conjugate:
            fired += 1
            after = aux.inner.entries
            for i in range(aux.inner.m + 1):
                kept = before[i][:m] + before[i][m + 1 :]
                if i == r:
                    assert after[i] == tuple(-x for x in kept)
                else:
                    assert after[i] == kept


def test_criterion_4_conjugate_slack_shortcut():
    texts = [
        "max: x1;\nc1: x1 >= 2;\nc2: x1 <= 2;\n",
        "max: x1;\nc1: x1 + x2 <= 1;\nc2: x1 + x2 >= 1;\n",
        STRIP_TEXT,
    ]
    total_fired = 0
    for text in texts:
        sp = problem_from(text)
        verdict, fired = _audit_trick_run(sp)
        total_fired += fired
        _, status_on, _ = run_traditional_phase1(
            build_auxiliary(sp), SolveConfig(use_trick=True)
        )
        _, status_off, _ = run_traditional_phase1(build_auxiliary(sp), SolveConfig())
        assert status_on is status_off
        assert verdict.value == status_on.value
    assert total_fired >= 2
    print(
        f"criterion 4 PASS: {total_fired} shortcut pivots bit-checked, "
        "verdicts identical with the shortcut on and off"
    )


def _sweep_instances():
    shapes = (Shape.FEASIBLE_BIASED, Shape.INFEASIBLE_BIASED, Shape.DEGENERATE_BIASED)
    seed = 0
    for rows in range(1, 7):
        for cols in range(1, 7):
            for shape in shapes:
                for _ in range(5):
                    yield seed, rows, cols, shape
                    seed += 1


@pytest.fixture(scope="module")
def sweep():
    monitor = InvariantMonitor()
    runs = []
    for seed, rows, cols, shape in _sweep_instances():
        sp = standardize(generate_lp(seed=seed, rows=rows, cols=cols, shape=shape))
        truth = enumerate_vertices(sp)
        af = solve(sp, Method.ARTIFICIAL_FREE, SolveConfig(), monitor=monitor)
        trad = solve(sp, Method.TRADITIONAL, SolveConfig())
        runs.append((sp, truth, af, trad))
    return runs, monitor


def test_criterion_5_oracle_equivalence(sweep):
    runs, _ = sweep
    assert len(runs) >= 500
    for _, truth, af, trad in runs:
        if not truth.feasible:
            assert af.status is Status.INFEASIBLE
        elif truth.unbounded:
            assert af.status is Status.UNBOUNDED
        else:
            assert af.status is Status.OPTIMAL
            assert af.objective == truth.optimal_value
            assert trad.objective == truth.optimal_value
        assert trad.phase1.status is af.phase1.status
        assert trad.status is af.status
    print(
        f"criterion 5 PASS: {len(runs)} instances match the enumeration oracle; "
        "traditional verdict and objective agreed on all"
    )


def _dot(row, x):
    return sum(a * v for a, v in zip(row, x))


def test_sweep_certificates_hold_against_the_problem(sweep):
    # Each af and trad outcome of the sweep, checked in exact arithmetic
    # against sp.A, sp.b and sp.c alone: an optimal point is feasible and
    # scores the reported objective, a ray is an improving direction of
    # the feasible region, and an infeasible verdict names its rows.
    runs, _ = sweep
    counts = {Status.OPTIMAL: 0, Status.UNBOUNDED: 0, Status.INFEASIBLE: 0}
    for sp, _, *outcomes in runs:
        for out in outcomes:
            counts[out.status] += 1
            if out.status is Status.OPTIMAL:
                x = [out.solution[v] for v in sp.variables]
                assert all(type(v) is F and v >= 0 for v in x)
                assert all(_dot(row, x) <= b for row, b in zip(sp.A, sp.b))
                value = _dot(sp.c, x)
                assert out.objective == (-value if sp.negated_objective else value)
            elif out.status is Status.UNBOUNDED:
                r = [out.certificates.ray[v] for v in sp.variables]
                assert all(type(v) is F and v >= 0 for v in r)
                assert all(_dot(row, r) <= 0 for row in sp.A)
                assert _dot(sp.c, r) > 0
            else:
                assert out.status is Status.INFEASIBLE
                assert len(out.certificates.infeasible_rows) >= 1
    assert all(counts.values())
    print(
        "sweep certificates PASS: "
        + ", ".join(f"{n} {s.value}" for s, n in counts.items())
        + " outcomes checked against A, b and c"
    )


def test_criterion_6_invariants_over_sweep(sweep):
    _, monitor = sweep
    assert monitor.checks > 0
    assert monitor.violations == []
    print(f"criterion 6 PASS: {monitor.checks} pivots checked, 0 violations")


def test_paper_claims_hold_over_the_sweep(sweep):
    # The abstract's claims, counted on the sweep's phase-1 traces: af
    # never takes more pivots than trad, takes fewer degenerate ones, and
    # walks the same deduplicated corners on all but two instances.
    runs, monitor = sweep
    seeds = [seed for seed, *_ in _sweep_instances()]
    af = [af_out.phase1 for *_, af_out, _ in runs]
    trad = [trad_out.phase1 for *_, trad_out in runs]
    assert all(a.pivots <= t.pivots for a, t in zip(af, trad))
    assert sum(a.pivots for a in af) == monitor.checks == 881
    assert sum(t.pivots for t in trad) == 947
    assert sum(a.degenerate_pivots for a in af) == 17
    assert sum(t.degenerate_pivots for t in trad) == 81
    walks_differ = [
        seed
        for seed, a, t in zip(seeds, af, trad)
        if a.deduplicated_corners() != t.deduplicated_corners()
    ]
    assert walks_differ == [407, 497]
    print(
        "paper claims PASS: af <= trad pivots on all 540 instances, 881 vs 947 "
        "pivots, 17 vs 81 degenerate, equal corner walks on 538"
    )


def _random_dictionary(rng, pivots):
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    entries = tuple(
        tuple(F(rng.randint(-6, 6)) for _ in range(n + 1)) for _ in range(m + 1)
    )
    d = Dictionary(
        basis=tuple(slack(i + 1) for i in range(m)),
        nonbasis=tuple(structural(j + 1) for j in range(n)),
        entries=entries,
    )
    for _ in range(pivots):
        spots = [
            (i, j)
            for i in range(1, m + 1)
            for j in range(1, n + 1)
            if d.entries[i][j] != 0
        ]
        if not spots:
            break
        d = d.pivot(*rng.choice(spots))
    return d


def test_criterion_7_dual_mirrors_primal_on_transpose():
    pairing = {
        Status.DUAL_FEASIBLE: Status.FEASIBLE,
        Status.DUAL_INFEASIBLE: Status.INFEASIBLE,
        Status.CYCLE_DETECTED: Status.CYCLE_DETECTED,
        Status.ITERATION_LIMIT: Status.ITERATION_LIMIT,
    }
    rng = random.Random(20260819)
    trials = 220
    for _ in range(trials):
        d = _random_dictionary(rng, pivots=rng.randint(0, 2))
        dual_final, dual_status, dual_trace = run_dual_phase1(d, SolveConfig())
        primal_final, primal_status, primal_trace = run_phase1(
            d.negative_transpose(), SolveConfig()
        )
        assert pairing[dual_status] is primal_status
        assert len(dual_trace.records) == len(primal_trace.records)
        for dual_rec, primal_rec in zip(dual_trace.records, primal_trace.records):
            assert dual_rec.leaving == primal_rec.entering
            assert dual_rec.entering == primal_rec.leaving
            assert dual_rec.ratio == primal_rec.ratio
        assert dual_final.negative_transpose() == primal_final
    print(f"criterion 7 PASS: {trials} dictionaries, pivot-for-pivot mirror")


def test_criterion_8_degenerate_pivot_savings(walk_sp):
    report = compare(walk_sp, SolveConfig())
    assert report.af.degenerate_pivots == 0
    assert report.traditional.degenerate_pivots == 2
    assert report.af.pivots == 3
    assert report.traditional.pivots == 5
    assert report.af.pivots < report.traditional.pivots

    wins = total = 0
    for seed in range(120):
        sp = standardize(
            generate_lp(seed=seed, rows=4, cols=3, shape=Shape.DEGENERATE_BIASED)
        )
        rep = compare(sp, SolveConfig())
        total += 1
        wins += rep.af_pivots_le_traditional
    print(
        "criterion 8 PASS: 0 vs 2 degenerate pivots and 3 < 5 on the walk; "
        f"af <= traditional pivots on {wins}/{total} degenerate-biased instances "
        "(informational)"
    )


def test_criterion_9_parser_serialization_exit_codes(tmp_path, capsys, walk_sp):
    gp = parse_lp(WALK_TEXT)
    printed = format_lp(gp)
    assert parse_lp(printed) == gp
    assert format_lp(parse_lp(printed)) == printed

    first = emit_outcome_json(solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig()))
    second = emit_outcome_json(solve(walk_sp, Method.ARTIFICIAL_FREE, SolveConfig()))
    assert first == second
    assert json.loads(first)["status"] == "unbounded"

    cases = [
        ("max: x1;\nc1: x1 <= 1;\n", 0),
        (STRIP_TEXT, 1),
        (WALK_TEXT, 2),
        ("max 3 x1;\n", 65),
    ]
    for idx, (text, expected) in enumerate(cases):
        path = tmp_path / f"case{idx}.lp"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", str(path), "--quiet"]) == expected
    capsys.readouterr()
    print(
        "criterion 9 PASS: LP round-trip exact, outcome JSON byte-stable, "
        "exit codes 0/1/2/65 observed"
    )


def test_criterion_10_float_mode_agrees_with_exact(sweep):
    runs, _ = sweep  # the exact af and trad solves, in _sweep_instances() order
    float_mode = FloatMode(1e-9)  # the CLI's default --eps
    trick = SolveConfig(use_trick=True)
    monitor = InvariantMonitor()
    count = 0
    for (seed, rows, cols, shape), (*_, af_exact, trad_exact) in zip(_sweep_instances(), runs):
        gp = generate_lp(seed=seed, rows=rows, cols=cols, shape=shape)
        exact = standardize(gp)
        floating = standardize(parse_lp(format_lp(gp), float_mode))
        pairs = (
            (af_exact, solve(floating, Method.ARTIFICIAL_FREE, SolveConfig(), monitor)),
            (trad_exact, solve(floating, Method.TRADITIONAL, SolveConfig())),
            (solve(exact, Method.TRADITIONAL, trick), solve(floating, Method.TRADITIONAL, trick)),
        )
        for want, got in pairs:
            assert got.status is want.status
            if want.status is Status.OPTIMAL:
                assert abs(got.objective - want.objective) <= 1e-6 * max(
                    1, abs(want.objective)
                )
        assert compare(floating).verdict is compare(exact).verdict
        count += 1
    assert count == len(runs)
    assert monitor.checks == 881
    assert monitor.violations == []
    print(
        f"criterion 10 PASS: float mode at eps 1e-9 matches exact status, "
        f"objective and compare verdict on {count} instances; "
        f"{monitor.checks} float pivots checked, 0 violations"
    )
