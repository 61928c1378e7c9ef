"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.installed()`` replaces each callable in ``WRAPPED`` with a wrapper
under the very name its caller looks it up by (``harness.phase2_step`` and
``phase2.phase2_step`` are separate names for one function, and both are
wrapped), and puts every original back when the block ends, also on error.
Each call becomes a span: name, start, end and the span that was open when
it began.  A span's self time is its duration minus that of the spans
directly inside it.

Counting that needs the dictionaries themselves (entry updates and entry
bit lengths) happens in the ``Dictionary.pivot`` wrapper with the span
clock stopped, so no span, parent or child, includes it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from afsimplex import (
    dictionary,
    generate,
    harness,
    jsonout,
    lpformat,
    model,
    oracle,
    phase1,
    phase2,
    traditional,
)

# (owner, attribute, span name).  Several attributes may share a span name.
WRAPPED = (
    (generate, "generate_lp", "generate.generate"),
    (lpformat, "format_lp", "lpformat.format"),
    (lpformat, "parse_lp", "lpformat.parse"),
    (model, "standardize", "model.standardize"),
    (harness, "solve", "harness.solve"),
    (harness, "compare", "harness.compare"),
    (harness, "run_phase1", "phase1.run"),
    (harness, "run_phase2", "phase2.run"),
    (harness, "run_traditional_phase1", "traditional.run"),
    (harness, "phase2_step", "phase2.step"),
    (phase1, "phase1_step", "phase1.step"),
    (phase1, "phase1_objective_vector", "phase1.pricing"),
    (phase1, "select_entering", "phase1.pricing"),
    (phase1, "select_leaving", "phase1.ratio"),
    (phase1, "infeasibility_sum", "phase1.infeasibility_sum"),
    (phase2, "phase2_step", "phase2.step"),
    (traditional, "traditional_step", "traditional.step"),
    (traditional.AuxiliaryDictionary, "pivot", "traditional.pivot"),
    (traditional.AuxiliaryDictionary, "conjugate_pivot", "traditional.pivot"),
    (dictionary.Dictionary, "pivot", "dictionary.pivot"),
    (dictionary.Dictionary, "corner", "dictionary.corner"),
    (dictionary.Dictionary, "signature", "dictionary.signature"),
    (oracle, "enumerate_vertices", "oracle.enumerate"),
    (jsonout, "emit_outcome_json", "jsonout.emit"),
    (jsonout, "emit_report_json", "jsonout.emit"),
    (jsonout, "emit_oracle_json", "jsonout.emit"),
)

PIVOT_SPAN = "dictionary.pivot"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    instance: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    entry_updates: int = 0
    max_entry_bits: int = 0
    instance: int = 0
    _open: list[int] = field(default_factory=list)
    _paused: float = 0.0

    def clock(self) -> float:
        """Span time: wall time minus the time spent counting."""
        return time.perf_counter() - self._paused

    def _wrap(self, name: str, original):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, 0.0, 0.0, parent, tracer.instance)
            tracer.spans.append(span)
            tracer._open.append(index)
            span.start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._open.pop()
            if name == PIVOT_SPAN:
                tracer._count_pivot(args[0], result)
            return result

        return wrapper

    def _count_pivot(self, before, after) -> None:
        paused_at = time.perf_counter()
        self.entry_updates += (before.m + 1) * (before.n + 1)
        if isinstance(after.entries[0][0], Fraction):  # exact mode; floats have no bit growth
            bits = max(
                max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in after.entries
                for x in row
            )
            self.max_entry_bits = max(self.max_entry_bits, bits)
        self._paused += time.perf_counter() - paused_at

    @contextmanager
    def installed(self):
        """Wrap every callable in WRAPPED for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in WRAPPED:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, self time and number of calls."""
        total: dict[str, float] = defaultdict(float)
        inner: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            calls[span.name] += 1
            if span.parent is not None:
                inner[span.parent] += duration
        own: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            own[span.name] += span.end - span.start - inner[index]
        return total, own, calls

