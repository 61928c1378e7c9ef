"""afsimplex benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Run from the root of an afsimplex checkout; the library is imported from
``src``.  With ``--trace 0`` the run repeats passes over the workload for
``--seconds`` seconds (at least one whole pass) and reports the end-to-end
metrics.  With ``--trace 1`` it runs one pass, every instance once plain
and once traced, and reports the per-layer metrics plus the tracing
overhead.  Times are scaled to a reference host speed (``speed.py``).
Every answer is checked; the last line of standard output is the result
as JSON.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from layers import Counts, layer_metrics
from speed import ScaledClock

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
P90_MIN_INSTANCES = 100
SHOWN_ERRORS = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def checkout_root() -> str:
    """The checkout this run measures: the working directory, which must hold src/afsimplex."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "afsimplex", "__init__.py")):
        raise SystemExit("perfbench: no src/afsimplex here; run from the root of a checkout")
    return root


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: SHOWN_ERRORS - len(self.errors)])


def run_checked(instance, mode, checker, tally: Tally, clock, key: int):
    """Run one instance, timed, then check it untimed; (raw seconds, result).

    The duration goes to `clock` (a ScaledClock) under `key`.  A run that
    raised is tallied as failed and returns (None, None).
    """
    from workloads import run_instance

    gc.collect()  # start each instance from a clean heap, as a fresh CLI process does
    start = time.perf_counter()
    try:
        result = run_instance(instance, mode)
    except Exception as exc:  # a raised error is a failed instance, never a crash
        tally.record([f"{instance.problem.key}: {type(exc).__name__}: {exc}"])
        return None, None
    elapsed = time.perf_counter() - start
    clock.record(key, start, elapsed)
    try:
        errors = checker.check(instance, result)
    except Exception as exc:
        errors = [f"{instance.problem.key}: check raised {type(exc).__name__}: {exc}"]
    tally.record(errors)
    return elapsed, result


def measure(instances, mode, checker, seconds: float):
    """Closed loop over passes until `seconds` is spent.

    Returns the scaled times of each instance, the tally, and the run's
    host-speed factor (above 1 when the host ran faster than the reference).
    """
    clock = ScaledClock()
    tally = Tally()
    start = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - start < seconds:
        for i, instance in enumerate(instances):
            if not first_pass and time.perf_counter() - start >= seconds:
                break
            run_checked(instance, mode, checker, tally, clock, i)
        first_pass = False
    scaled = clock.scaled()
    return [scaled.get(i, []) for i in range(len(instances))], tally, clock.factor()


def setup_seconds(root: str, workload: str, seed: int) -> float:
    """Median scaled set-up time over fresh interpreters (import + building the LP texts)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  With
    18 instances per pass, the plain median is one or two instances' times
    and spread twice as much from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64 * n  # integration grid; every i/n is a grid point
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = [
        math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        for t in ((k + 0.5) / steps for k in range(steps))
    ]
    weights = [math.fsum(density[64 * i : 64 * (i + 1)]) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def end_to_end(samples, tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    # Instances that raised on every try have no time; with none timed at
    # all the times read 0 and `correct` is false.
    per_instance = [statistics.median(s) for s in samples if s] or [0.0]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (math.fsum(per_instance), "s"),
        "instance_ms.p50": (harrell_davis(per_instance, 0.5) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "correct_frac": (1 - tally.failed / tally.attempted, "frac"),
    }


def extra_end_to_end(samples, tally: Tally, factor: float) -> dict[str, tuple[float, str]]:
    """Figures printed for people but not part of the result line."""
    per_instance = [statistics.median(s) for s in samples if s]
    extra = {
        "failed_frac": (tally.failed / tally.attempted, "frac"),
        "instances": (len(per_instance), "count"),
        "samples": (sum(len(s) for s in samples), "count"),
        "host_speed": (factor, "x"),
    }
    if len(per_instance) >= P90_MIN_INSTANCES:
        extra["instance_ms.p90"] = (harrell_davis(per_instance, 0.9) * 1e3, "ms")
    return extra


def traced(instances, mode, checker, tracer) -> tuple[dict[str, tuple[float, str]], Tally]:
    """One pass, each instance plain and traced in alternating order."""
    clock = ScaledClock()
    tally = Tally()
    counts = Counts()
    for index, instance in enumerate(instances):
        tracer.instance = index
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    elapsed, result = run_checked(instance, mode, checker, tally, clock, 1)
                if elapsed is not None:
                    counts.add(instance, result)
            else:
                run_checked(instance, mode, checker, tally, clock, 0)
    scaled = clock.scaled()
    metrics = layer_metrics(tracer, counts, clock.factor())
    plain_s = math.fsum(scaled.get(0, []))
    overhead = math.fsum(scaled.get(1, [])) / plain_s - 1 if plain_s else 0.0
    metrics["bench.trace_overhead_frac"] = (overhead, "frac")
    return metrics, tally


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = checkout_root()
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads
    from checks import Checker, load_references

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    checker = Checker(workload.mode, load_references())

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            instances = workloads.build(workload, args.seed)
        metrics, tally = traced(instances, workload.mode, checker, tracer)
        shown = metrics
    else:
        setup_s = setup_seconds(root, args.workload, args.seed)
        instances = workloads.build(workload, args.seed)
        samples, tally, factor = measure(instances, workload.mode, checker, args.seconds)
        metrics = end_to_end(samples, tally, setup_s)
        shown = {**metrics, **extra_end_to_end(samples, tally, factor)}

    for error in tally.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({"env": environment(root, args)}, sort_keys=True))
    for name, (value, unit) in shown.items():
        print(f"{args.workload:<14} {name:<32} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
