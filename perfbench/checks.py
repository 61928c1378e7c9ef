"""Answer checks, run outside the timed region after every instance.

An answer is checked for its meaning, never its bytes: status, objective
and solution are compared with the pinned references in
``references.json``, the emitted JSON is parsed back and compared with the
outcome it came from, and every certificate is verified against the
standardized problem.  A later change that adds keys to the JSON therefore
still passes.  Since the two methods are held to the same reference, `af`
and `trad` agree whenever both pass; on the sweep every answer must also
match the enumeration oracle.

Float mode is held to the exact references within ``REL_TOL``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from afsimplex.numeric import ExactMode, NumericMode

HERE = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-6


def load_references(path: str = os.path.join(HERE, "references.json")) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    def __init__(self, mode: NumericMode, references: dict):
        self.exact = isinstance(mode, ExactMode)
        self.references = references

    def close(self, got, want) -> bool:
        if self.exact:
            return Fraction(got) == Fraction(want)
        want = float(Fraction(want))
        return abs(float(got) - want) <= REL_TOL * max(1.0, abs(want))

    def at_most(self, lhs, rhs) -> bool:
        if self.exact:
            return lhs <= rhs
        return lhs <= rhs + REL_TOL * max(1.0, abs(rhs))

    def outcome(self, key: str, sp, outcome, emitted: str) -> list[str]:
        """Problems with one `solve` answer; empty when it is right."""
        ref = self.references.get(key)
        if ref is None:
            return [f"{key}: no pinned reference"]
        errors = []
        status = outcome.status.value
        if status != ref["status"]:
            return [f"{key}: status {status}, reference {ref['status']}"]
        if status == "optimal":
            if not self.close(outcome.objective, ref["objective"]):
                errors.append(f"{key}: objective {outcome.objective}, reference {ref['objective']}")
            errors += self.solution(key, sp, outcome)
        elif status == "unbounded":
            errors += self.ray(key, sp, outcome.certificates.ray or {})
        elif not outcome.certificates.infeasible_rows:
            errors.append(f"{key}: infeasible without certifying rows")
        errors += self.emitted(key, outcome, emitted)
        return errors

    def solution(self, key, sp, outcome) -> list[str]:
        x = [outcome.solution[v] for v in sp.variables]
        errors = []
        if any(not self.at_most(0, xj) for xj in x):
            errors.append(f"{key}: solution has a negative value")
        for name, row, bi in zip(sp.row_names, sp.A, sp.b):
            if not self.at_most(sum(a * xj for a, xj in zip(row, x)), bi):
                errors.append(f"{key}: solution violates {name}")
        value = sum(c * xj for c, xj in zip(sp.c, x))
        if sp.negated_objective:
            value = -value
        if not self.close(value, Fraction(outcome.objective)):
            errors.append(f"{key}: objective {outcome.objective} is not c.x = {value}")
        return errors

    def ray(self, key, sp, ray) -> list[str]:
        d = [ray.get(v, 0) for v in sp.variables]
        ok = all(self.at_most(0, dj) for dj in d)
        ok = ok and all(self.at_most(sum(a * dj for a, dj in zip(row, d)), 0) for row in sp.A)
        gain = sum(c * dj for c, dj in zip(sp.c, d))
        ok = ok and not self.at_most(gain, 0)
        return [] if ok else [f"{key}: ray certificate does not hold"]

    def emitted(self, key, outcome, emitted: str) -> list[str]:
        data = json.loads(emitted)
        errors = []
        if data.get("status") != outcome.status.value:
            errors.append(f"{key}: JSON status {data.get('status')}")
        if outcome.objective is not None:
            got = data.get("objective", {})
            if Fraction(got.get("num", 0), got.get("den", 1)) != Fraction(outcome.objective):
                errors.append(f"{key}: JSON objective differs from the outcome")
            values = {e["var"]: Fraction(e["num"], e["den"]) for e in data.get("solution", [])}
            if values != {v: Fraction(x) for v, x in outcome.solution.items()}:
                errors.append(f"{key}: JSON solution differs from the outcome")
        return errors

    def sweep(self, key, result) -> list[str]:
        """Oracle, three `solve` runs and `compare` on one grid instance."""
        truth = result.truth
        ref = self.references.get(key)
        if ref is None:
            return [f"{key}: no pinned reference"]
        oracle_status = (
            "infeasible" if not truth.feasible
            else "unbounded" if truth.unbounded
            else "optimal"
        )
        if oracle_status != ref["status"]:
            return [f"{key}: oracle says {oracle_status}, reference {ref['status']}"]
        if oracle_status == "optimal" and truth.optimal_value != Fraction(ref["objective"]):
            return [f"{key}: oracle optimum {truth.optimal_value}, reference {ref['objective']}"]
        oracle_json = json.loads(result.emitted[0])
        if (oracle_json["feasible"], oracle_json["unbounded"]) != (truth.feasible, truth.unbounded):
            return [f"{key}: oracle JSON differs from the oracle result"]

        errors = []
        for outcome, emitted in zip((result.af, result.trad, result.trick), result.emitted[1:4]):
            errors += self.outcome(key, result.sp, outcome, emitted)
        report = result.report
        report_json = json.loads(result.emitted[4])
        if report.verdict is not result.af.phase1.status:
            errors.append(f"{key}: compare verdict {report.verdict.value}")
        if report_json.get("verdict") != report.verdict.value:
            errors.append(f"{key}: compare JSON verdict {report_json.get('verdict')}")
        if (report.af.pivots, report.traditional.pivots) != (
            result.af.phase1.pivots,
            result.trad.phase1.pivots,
        ):
            errors.append(f"{key}: compare pivot counts differ from solve")
        return errors

    def check(self, instance, result) -> list[str]:
        key = instance.problem.key
        if instance.method is None:
            return self.sweep(key, result)
        return self.outcome(key, result.sp, result.outcome, result.emitted)
