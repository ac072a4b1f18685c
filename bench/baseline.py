"""Time the ROADMAP Baseline rows that the benchmark's workloads cover.

    python3 bench/baseline.py

Each row is timed REPS times, both as wall time and in reference-host
time (hostclock.py).  A row is flagged when its median wall time differs
from the Baseline figure by more than the spread of its own repetitions,
(max - min) / median.
"""

from __future__ import annotations

import statistics
import sys
from fractions import Fraction
from time import perf_counter

import run
from hostclock import HostClock

REPS = 3


def rows(pkg):
    adv, engine, analysis = pkg.adversary, pkg.engine, pkg.analysis
    alpha = pkg.policies.PolicyKind.ALPHA
    half = Fraction(1, 2)

    def lb2_dos(m):
        inst, t = adv.gen_det_lb2(half, 5)
        return adv.append_dos_tail(inst, t, m)

    rand400 = adv.gen_random_instance(400, 8, 0.8, 400, half)
    rand16 = adv.gen_random_instance(16, 8, 0.8, 16, half)
    dos1000, dos5000 = lb2_dos(1000), lb2_dos(5000)
    return [
        ("simulate fused rule, random n = 400", 1.77, lambda: engine.simulate(rand400, alpha)),
        ("simulate fused rule, lb2 k=5 + DoS M = 1000", 0.47, lambda: engine.simulate(dos1000, alpha)),
        ("simulate fused rule, lb2 k=5 + DoS M = 5000", 2.9, lambda: engine.simulate(dos5000, alpha)),
        ("verify_instance, random n = 16", 5.3, lambda: analysis.verify_instance(rand16)),
    ]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_package()
    print("row | Baseline s | wall median s | spread | reference-host median s | flag")
    for name, baseline, call in rows(pkg):
        with HostClock() as clock:
            spans = []
            for _ in range(REPS):
                start = perf_counter()
                call()
                spans.append((start, perf_counter()))
        wall = [b - a for a, b in spans]
        median = statistics.median(wall)
        spread = (max(wall) - min(wall)) / median
        ref = statistics.median(clock.normalize(*s) for s in spans)
        flag = "DISAGREES" if abs(median - baseline) / baseline > spread else "agrees"
        print(f"{name} | {baseline} | {median:.3f} | {spread:.3f} | {ref:.3f} | {flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
