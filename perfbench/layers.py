"""Per-layer metrics of a traced pass: span times plus counts.

Times come from the tracer's spans.  Counts are read afterwards from what
the calls returned (traces, reports, emitted text) or, for the dictionary
entries, counted by the tracer with its clock stopped; none of them is
taken inside a timed span.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb


@dataclass
class Counts:
    phase1_pivots: int = 0
    phase1_degenerate: int = 0
    phase2_pivots: int = 0
    phase2_degenerate: int = 0
    trad_pivots: int = 0
    trad_degenerate: int = 0
    trad_conjugate: int = 0
    json_bytes: int = 0
    input_bytes: int = 0
    bases: int = 0
    vertices: int = 0

    def add_trace(self, trace) -> None:
        if trace.method == "af_phase1":
            self.phase1_pivots += trace.pivots
            self.phase1_degenerate += trace.degenerate_pivots
        elif trace.method == "traditional_phase1":
            self.trad_pivots += trace.pivots
            self.trad_degenerate += trace.degenerate_pivots
            self.trad_conjugate += sum(1 for rec in trace.records if rec.via_conjugate)
        else:
            self.phase2_pivots += trace.pivots
            self.phase2_degenerate += trace.degenerate_pivots

    def add_outcome(self, outcome) -> None:
        self.add_trace(outcome.phase1)
        if outcome.phase2 is not None:
            self.add_trace(outcome.phase2)

    def add(self, instance, result) -> None:
        self.input_bytes += len(instance.text.encode())
        if instance.method is not None:
            self.add_outcome(result.outcome)
            self.json_bytes += len(result.emitted.encode())
            return
        for outcome in (result.af, result.trad, result.trick):
            self.add_outcome(outcome)
        report = result.report
        self.phase1_pivots += report.af.pivots
        self.phase1_degenerate += report.af.degenerate_pivots
        self.trad_pivots += report.traditional.pivots
        self.trad_degenerate += report.traditional.degenerate_pivots
        self.json_bytes += sum(len(text.encode()) for text in result.emitted)
        self.bases += comb(result.sp.m + result.sp.p, result.sp.m)
        self.vertices += len(result.truth.vertices)


def layer_metrics(tracer, counts: Counts, factor: float) -> dict[str, tuple[float, str]]:
    """Span times are multiplied by `factor`, the run's host-speed scale (speed.py)."""
    total, own, calls = tracer.totals()
    total = defaultdict(float, {name: t * factor for name, t in total.items()})
    own = defaultdict(float, {name: t * factor for name, t in own.items()})
    pivots = calls["dictionary.pivot"]
    return {
        "dictionary.pivot_s": (total["dictionary.pivot"], "s"),
        "dictionary.pivots": (pivots, "count"),
        "dictionary.pivot_us_per_pivot": (
            total["dictionary.pivot"] / pivots * 1e6 if pivots else 0.0, "us"),
        "dictionary.entry_updates": (tracer.entry_updates, "count"),
        "dictionary.max_entry_bits": (tracer.max_entry_bits, "bits"),
        "dictionary.corner_s": (total["dictionary.corner"], "s"),
        "dictionary.signature_s": (total["dictionary.signature"], "s"),
        "phase1.step_s": (total["phase1.step"], "s"),
        "phase1.pricing_s": (total["phase1.pricing"], "s"),
        "phase1.ratio_s": (total["phase1.ratio"], "s"),
        "phase1.infeasibility_sum_s": (total["phase1.infeasibility_sum"], "s"),
        "phase1.loop_s": (own["phase1.run"], "s"),
        "phase1.pivots": (counts.phase1_pivots, "count"),
        "phase1.degenerate_pivots": (counts.phase1_degenerate, "count"),
        "phase2.step_s": (total["phase2.step"], "s"),
        "phase2.loop_s": (own["phase2.run"], "s"),
        "phase2.pivots": (counts.phase2_pivots, "count"),
        "phase2.degenerate_pivots": (counts.phase2_degenerate, "count"),
        "traditional.step_s": (total["traditional.step"], "s"),
        "traditional.pivot_s": (own["traditional.pivot"], "s"),
        "traditional.loop_s": (own["traditional.run"], "s"),
        "traditional.pivots": (counts.trad_pivots, "count"),
        "traditional.degenerate_pivots": (counts.trad_degenerate, "count"),
        "traditional.conjugate_pivots": (counts.trad_conjugate, "count"),
        "harness.solve_s": (own["harness.solve"], "s"),
        "harness.compare_s": (own["harness.compare"], "s"),
        "jsonout.emit_s": (total["jsonout.emit"], "s"),
        "jsonout.bytes": (counts.json_bytes, "bytes"),
        "oracle.enumerate_s": (total["oracle.enumerate"], "s"),
        "oracle.bases": (counts.bases, "count"),
        "oracle.vertices": (counts.vertices, "count"),
        "oracle.vertices_per_basis": (
            counts.vertices / counts.bases if counts.bases else 0.0, "frac"),
        "lpformat.parse_s": (total["lpformat.parse"], "s"),
        "lpformat.input_bytes": (counts.input_bytes, "bytes"),
        "lpformat.format_s": (total["lpformat.format"], "s"),
        "model.standardize_s": (total["model.standardize"], "s"),
        "generate.generate_s": (total["generate.generate"], "s"),
    }
