"""Set-up time of one run, measured in a fresh interpreter.

Prints the seconds from before ``import afsimplex`` until the workload's
LP texts are built, scaled to the reference host speed by a calibration
taken right afterwards in this process (``speed.py``).  ``run.py`` starts
this several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed = argv
    workloads.build(workloads.WORKLOADS[workload], int(seed))
    raw = time.perf_counter() - START
    import speed

    _, unit = speed.calibrate()
    print(repr(raw * speed.REFERENCE_S / unit))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
