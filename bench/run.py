"""Benchmark of alphasched: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller in one process runs one item at
a time; the next item starts when the previous one returns.

--trace 0 builds the workload's pool several times (the median is
setup_s), runs warm-up items, then cycles through the pool for S seconds and
prints the end-to-end metrics.  --trace 1 runs one untraced pass and one
traced pass over the pool, checks that both give the same output digests,
prints the per-layer metrics and writes every span to bench/out/.

Every item's output digest is checked against bench/reference.json where
that file holds the workload, size and seed, and otherwise against the
first run of the same item in this process.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostclock import HostClock
from tracing import COUNT_METRICS, ITEM_SPAN, Tracer
from workloads import SIZES, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_REPS = 5
WARMUP_SECONDS = 1.0
MODULES = ("adversary", "analysis", "engine", "metrics", "model", "oracle", "policies", "rational")


def import_package() -> SimpleNamespace:
    """Import alphasched afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "alphasched" or m.startswith("alphasched.")]:
        del sys.modules[name]
    pkg = importlib.import_module("alphasched")
    if Path(pkg.__file__).resolve().parent != SRC / "alphasched":
        raise ImportError(f"alphasched imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"alphasched.{m}") for m in MODULES})


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(size, {}).get(str(seed))


class Checker:
    """Counts attempted and failed items.  An item fails when it raises,
    fails its exact check, or its digest differs from the expected one."""

    def __init__(self, reference: dict | None):
        self.expected = list(reference["items"]) if reference else None
        self.expected_pass = dict(reference["passes"]) if reference else {}
        self.source = "recorded" if reference else "self"
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.exact_failures = 0
        self.errors = 0

    def expect(self, idx: int) -> str | None:
        return self.expected[idx] if self.expected is not None else self.first.get(idx)

    def note(self, idx: int, label: str, outcome, error: str | None = None) -> None:
        self.attempted += 1
        bad = None
        if error is not None:
            self.errors += 1
            bad = error
        elif not outcome.ok:
            self.exact_failures += 1
            bad = "exact check failed"
        else:
            want = self.expect(idx)
            if want is None:
                self.first[idx] = outcome.digest
            elif want != outcome.digest:
                self.mismatches += 1
                bad = f"digest {outcome.digest} != expected {want}"
        if bad is not None:
            self.failed += 1
            print(f"FAIL item {idx} {label}: {bad}", file=sys.stderr)

    def note_pass(self, files_digest: dict[str, str]) -> None:
        """Check a pool-level output (sweep.csv) from one complete pass."""
        for name, value in files_digest.items():
            self.attempted += 1
            want = self.expected_pass.setdefault(name, value)
            if want != value:
                self.failed += 1
                self.mismatches += 1
                print(f"FAIL pass output {name}: digest {value} != expected {want}", file=sys.stderr)

    def summary(self) -> str:
        fraction = self.failed / self.attempted if self.attempted else 0.0
        return (
            f"check: reference={self.source} attempted={self.attempted} failed={self.failed} "
            f"failed_fraction={fraction} digest_mismatches={self.mismatches} "
            f"exact_check_failures={self.exact_failures} errors={self.errors}"
        )


def run_item(wl, idx: int):
    """(outcome, error text) for one item; an exception is a failed item."""
    try:
        return wl.run(wl.pool[idx]), None
    except Exception:  # the benchmark keeps going and reports the failure
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_pass(wl, checker: Checker, tracer=None) -> tuple[list, list[float]]:
    """Every pool item once, in order: (digests, item seconds)."""
    digests, seconds, payloads = [], [], []
    for idx, item in enumerate(wl.pool):
        if tracer is not None:
            tracer.item = idx
            tracer.open(ITEM_SPAN)
        start = perf_counter()
        outcome, error = run_item(wl, idx)
        seconds.append(perf_counter() - start)
        if tracer is not None:
            tracer.close()
        checker.note(idx, item.label, outcome, error)
        digests.append(outcome.digest if outcome else None)
        payloads.append(outcome.payload if outcome else None)
    check_pass_outputs(wl, checker, payloads)
    return digests, seconds


def check_pass_outputs(wl, checker: Checker, payloads: list) -> None:
    if wl.pass_files is not None and None not in payloads:
        checker.note_pass({name: digest([(name, data)]) for name, data in wl.pass_files(payloads)})


def build_workload(workload: str, seed: int, size: str):
    pkg = import_package()
    return WORKLOADS[workload](pkg, seed, size)


def measure(args) -> tuple[Checker, dict]:
    """--trace 0: end-to-end metrics, in reference-host time (hostclock.py)."""
    with HostClock() as clock:
        setup = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            wl = build_workload(args.workload, args.seed, args.size)
            setup.append((start, perf_counter()))
        pool = len(wl.pool)
        checker = Checker(load_reference(args.workload, args.size, args.seed))

        # Warm-up: neither timed nor counted.
        start, idx = perf_counter(), 0
        while idx == 0 or (perf_counter() - start < WARMUP_SECONDS and idx < pool):
            run_item(wl, idx)
            idx += 1

        # The timed phase cycles through the pool for the given seconds and
        # always completes at least one pass, so every item is timed.
        spans: list[list[tuple[float, float]]] = [[] for _ in range(pool)]
        payloads = []
        phase_start = perf_counter()
        idx = 0
        while idx < pool or perf_counter() - phase_start < args.seconds:
            pos = idx % pool
            item_start = perf_counter()
            outcome, error = run_item(wl, pos)
            spans[pos].append((item_start, perf_counter()))
            checker.note(pos, wl.pool[pos].label, outcome, error)
            payloads.append(outcome.payload if outcome else None)
            if pos == pool - 1:
                check_pass_outputs(wl, checker, payloads)
                payloads = []
            idx += 1
        phase = perf_counter() - phase_start

    # Each pool item's median time; the pool's mix then sets the rates, so a
    # run that ends part-way into a pass weights no item more than another.
    item_ms = [1e3 * statistics.median(clock.normalize(*s) for s in item) for item in spans]
    wall_ms = [1e3 * statistics.median(b - a for a, b in item) for item in spans]
    print(
        f"{args.workload}: seed {args.seed}, size {args.size}, pool {pool} items, "
        f"{idx} timed items ({idx / pool:.2f} passes) in {phase:.3f} s, {SETUP_REPS} set-ups, "
        f"{len(clock.durations)} host-speed samples"
    )
    print(
        f"  wall clock, for reference: items_per_s = {1e3 * pool / sum(wall_ms)} items/s, "
        f"item_p50_ms = {statistics.median(wall_ms)} ms"
    )
    metrics = {
        "setup_s": (statistics.median(clock.normalize(*s) for s in setup), "s", SETUP_REPS),
        "items_per_s": (1e3 * pool / sum(item_ms), "items/s", idx),
        "item_p50_ms": (statistics.median(item_ms), "ms", pool),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    ms = sorted(1e3 * clock.normalize(*s) for item in spans for s in item)
    if len(ms) >= 100:
        # Printed for reading only: a run of a slow workload holds too few
        # items for ten samples beyond the 90th percentile.
        p90 = statistics.quantiles(ms, n=10)[-1]
        print(f"  item_p90_ms = {p90} ms (n={len(ms)})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value} {unit} (n={n})")
    return checker, {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def trace(args) -> tuple[Checker, dict]:
    """--trace 1: per-layer metrics from one traced pass."""
    tracer = Tracer()
    pkg = import_package()
    tracer.install(pkg)
    try:
        wl = WORKLOADS[args.workload](pkg, args.seed, args.size)
    finally:
        tracer.uninstall()
    reference = load_reference(args.workload, args.size, args.seed)
    checker = Checker(reference)

    run_item(wl, 0)  # warm-up
    plain_digests, plain_seconds = run_pass(wl, checker)
    tracer.install(pkg)
    try:
        traced_digests, traced_seconds = run_pass(wl, checker, tracer)
    finally:
        tracer.uninstall()
    differ = [i for i, (a, b) in enumerate(zip(plain_digests, traced_digests)) if a != b]
    for idx in differ:
        checker.failed += 1
        checker.mismatches += 1
        print(f"FAIL item {idx}: traced digest differs from untraced", file=sys.stderr)

    metrics = tracer.layer_metrics()
    item_s = sum(traced_seconds)
    metrics["bench.items"] = (len(traced_seconds), "count")
    metrics["bench.item_s"] = (item_s, "s")
    metrics["bench.unattributed_s"] = (tracer.self_time.get(ITEM_SPAN, 0.0), "s")
    metrics["bench.tracing_overhead"] = (item_s / sum(plain_seconds) - 1, "ratio")

    path = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(
        f"{args.workload}: seed {args.seed}, size {args.size}, one untraced and one traced pass "
        f"of {len(wl.pool)} items; {len(tracer.span_id)} spans written to {path.relative_to(ROOT)}; "
        f"traced digests {'equal' if not differ else 'DIFFER from'} untraced"
    )
    if reference and "counts" in reference:
        changed = [k for k in COUNT_METRICS if reference["counts"].get(k) != metrics[k][0]]
        print(f"  counts vs reference.json: {'equal' if not changed else 'differ: ' + ', '.join(changed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    return checker, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny pools, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alphasched" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    checker, metrics = trace(args) if args.trace else measure(args)
    print(checker.summary())
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
