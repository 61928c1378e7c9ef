"""Scaling measured times to a reference host speed.

The hosts this benchmark runs on share their cores with other tenants.
Measured while the benchmark was written, the speed of one fixed loop
drifted by up to 1.9x within minutes, and the plain wall time of the same
exact-ladder pass spread by 19% of its median over six runs.  So every
timed sample is scaled by how fast a fixed calibration loop ran next to
it:

    scaled = raw * REFERENCE_S / calibration time around the sample

A calibration is taken at the start, again once INTERVAL_S has passed
after a sample, and at the end; each sample is scaled by the mean of the
two calibrations that bracket it.  A set-up probe, a process of its own,
calibrates itself right after its timed part (``setup_probe.py``).  The
loop uses only the standard library, so no change to afsimplex can move
it.  REFERENCE_S is the loop's
time on an uncontended core of the host the benchmark was tuned on
(2 vCPUs, Python 3.11.7), which makes scaled times read as seconds on that
host when idle.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction

REFERENCE_S = 1.45e-3  # one calibration unit, uncontended
UNITS = 12  # units per calibration, about 18 ms
INTERVAL_S = 0.25


def calibration_unit() -> None:
    """Fraction arithmetic in pure Python, like the solver's inner loops."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i * 7919, i + 3) * Fraction(i + 1, 2 * i + 1)


def calibrate() -> tuple[float, float]:
    """(start time, seconds per unit)."""
    start = time.perf_counter()
    for _ in range(UNITS):
        calibration_unit()
    return start, (time.perf_counter() - start) / UNITS


class ScaledClock:
    """Collects raw samples and calibrations; scales them at the end."""

    def __init__(self):
        calibrate()  # warm-up: a core that has been idle runs the first loop slow
        self.calibrations = [calibrate()]
        self.samples: list[tuple[int, float, float]] = []  # (key, start, raw seconds)
        self._due = time.perf_counter() + INTERVAL_S

    def record(self, key: int, start: float, seconds: float) -> None:
        self.samples.append((key, start, seconds))
        if time.perf_counter() >= self._due:
            self.calibrations.append(calibrate())
            self._due = time.perf_counter() + INTERVAL_S

    def scaled(self) -> dict[int, list[float]]:
        """Scaled samples per key; takes a closing calibration first."""
        self.calibrations.append(calibrate())
        starts = [start for start, _ in self.calibrations]
        per_unit = [unit for _, unit in self.calibrations]
        out: dict[int, list[float]] = {}
        for key, start, seconds in self.samples:
            before = bisect_right(starts, start) - 1
            speed = (per_unit[before] + per_unit[before + 1]) / 2
            out.setdefault(key, []).append(seconds * REFERENCE_S / speed)
        return out

    def factor(self) -> float:
        """REFERENCE_S over the median calibration: scales a whole run's totals."""
        per_unit = sorted(unit for _, unit in self.calibrations)
        return REFERENCE_S / per_unit[len(per_unit) // 2]
