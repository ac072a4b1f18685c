"""Record reference digests and counts into bench/reference.json.

    python3 bench/record.py --size full --seeds 1 2026

For each workload and seed this runs one untraced and one traced pass over
the pool and stores every item's output digest, the digests of pool-level
outputs (sweep.csv) and the exact counts of the traced pass.  Record only
from a commit whose outputs are known to be right: later runs treat any
difference from these digests as a failed item.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracing import COUNT_METRICS, Tracer
from workloads import SIZES


def record(workload: str, size: str, seed: int) -> dict:
    wl = run.build_workload(workload, seed, size)
    checker = run.Checker(None)
    digests, _ = run.run_pass(wl, checker)
    tracer = Tracer()
    tracer.install(wl.pkg)
    try:
        traced, _ = run.run_pass(wl, checker, tracer)
    finally:
        tracer.uninstall()
    if checker.failed or traced != digests:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks; nothing recorded")
    metrics = tracer.layer_metrics()
    return {
        "items": digests,
        "passes": checker.expected_pass,
        "counts": {name: metrics[name][0] for name in COUNT_METRICS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    for workload in sorted(SIZES):
        for seed in args.seeds:
            entry = record(workload, args.size, seed)
            reference.setdefault(workload, {}).setdefault(args.size, {})[str(seed)] = entry
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"recorded {workload} {args.size} seed {seed}: {len(entry['items'])} items", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
