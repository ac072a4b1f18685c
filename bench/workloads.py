"""The four benchmark workloads.

Each workload builds a pool of items from the package's own generators and a
seed, passes every instance through the JSON wire format, and runs one item
at a time.  Running an item reproduces, through the public API, the work of
one CLI command and returns a digest of the exact bytes that command would
write, plus the result of the item's exact check.

Workloads reach the package only through the module attributes of ``pkg``
(``pkg.engine.simulate``, not a name bound at import), so that the traced
run can wrap those attributes without editing the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

ALPHAS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
QUANTUM = Fraction(1, 64)

# Per-size parameters.  "full" is what the benchmark measures; "smoke" is a
# tiny variant that exercises every code path of every workload in seconds.
SIZES = {
    "sim-large": {
        # (family, size) in pool order; lb2 sizes are DoS tail lengths M
        # (drawn from [M, 1.02 M)), random sizes are job counts n.
        "full": [("lb2", 1800), ("rand", 200), ("rand", 300), ("rand", 250)],
        "smoke": [("lb2", 40), ("rand", 12)],
    },
    "corpus-sweep": {"full": 150, "smoke": 6},  # sweep --fuzz
    "verify-mix": {
        "full": [6, 12, 7, 11, 8, 10, 9, 13, 6, 12, 7, 11, 8, 10, 9],
        "smoke": [3, 4],
    },
    "oracle-compare": {"full": 60, "smoke": 4},  # corpus instances per pool
}


def digest(files: list[tuple[str, bytes]]) -> str:
    """Short SHA-256 over named byte strings, in the given order."""
    h = hashlib.sha256()
    for name, data in files:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()[:16]


def csv_bytes(rows: list[str]) -> bytes:
    """File body as the CLI writes a list of CSV rows."""
    return ("\n".join(rows) + "\n").encode()


def json_bytes(obj) -> bytes:
    """File body as the CLI writes a JSON document."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


@dataclass
class Outcome:
    digest: str
    ok: bool  # the item's exact check
    payload: Any = None  # what a pass-level check needs from the item


@dataclass
class Item:
    label: str
    args: tuple


class Workload:
    """A pool of items; subclasses build it and say how to run one."""

    name = ""

    def __init__(self, pkg, seed: int, size: str):
        self.pkg = pkg
        self.seed = seed
        self.pool: list[Item] = self.build(SIZES[self.name][size])

    def round_trip(self, instance):
        """Instance as the program receives it: JSON text, parsed back."""
        model = self.pkg.model
        text = json.dumps(model.instance_to_json(instance), sort_keys=True)
        return model.instance_from_json(json.loads(text))

    def build(self, params) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item) -> Outcome:
        raise NotImplementedError

    # A workload whose CLI command aggregates over the whole pool overrides
    # this to return the aggregate's bytes from one pass of payloads.
    pass_files: Optional[Callable[[list[Any]], list[tuple[str, bytes]]]] = None


class SimLarge(Workload):
    """`alphasched simulate` with the fused rule, then with SRPT on the
    realized instance, on large instances."""

    name = "sim-large"

    def build(self, params):
        adv = self.pkg.adversary
        rng = random.Random(self.seed)
        pool = []
        for idx, (family, size) in enumerate(params):
            alpha = ALPHAS[idx % len(ALPHAS)]
            if family == "lb2":
                m = size + rng.randrange(max(1, size // 50))
                inst, t = adv.gen_det_lb2(Fraction(1, 2), 5)
                inst = adv.append_dos_tail(inst, t, m)
                label = f"lb2-k5-a1/2-M{m}"
            else:
                inst_seed = 1000 * self.seed + idx
                inst = adv.gen_random_instance(size, 8, 0.8, inst_seed, alpha)
                label = f"rand-n{size}-a{alpha}-s{inst_seed}"
            pool.append(Item(label, (self.round_trip(inst),)))
        return pool

    def run(self, item):
        (inst,) = item.args
        engine, metrics, kinds = self.pkg.engine, self.pkg.metrics, self.pkg.policies.PolicyKind
        alg, alg_log = engine.simulate(inst, kinds.ALPHA)
        opt, opt_log = engine.simulate(alg.instance, kinds.SRPT)
        files, reports = [], []
        for policy, trace, log in (("alpha", alg, alg_log), ("srpt", opt, opt_log)):
            report = metrics.build_report(trace)
            reports.append(report)
            files += [
                (f"{policy}/trace.csv", csv_bytes(trace.csv_rows())),
                (f"{policy}/events.csv", csv_bytes(log.csv_rows())),
                (f"{policy}/metrics.json", json_bytes(report.to_json())),
            ]
        # SRPT minimises total flow time, so the fused rule can never beat it.
        ok = alg.complete and opt.complete and reports[0].total_flow >= reports[1].total_flow
        return Outcome(digest(files), ok)


class CorpusSweep(Workload):
    """The per-instance work of `alphasched sweep --grid 1/2,2/3,3/4
    --fuzz F --seed 1+F*seed` (max-jobs 6, max-p 8, density 0.8)."""

    name = "corpus-sweep"

    def build(self, fuzz):
        adv = self.pkg.adversary
        first = 1 + fuzz * self.seed
        self.sweep_seed = first
        bases = [
            self.round_trip(adv.gen_random_instance(1 + (first + i) % 6, 8, 0.8, first + i))
            for i in range(fuzz)
        ]
        return [
            Item(f"sweep-a{alpha}-s{first + i}", (inst, alpha))
            for alpha in ALPHAS
            for i, inst in enumerate(bases)
        ]

    def run(self, item):
        base, alpha = item.args
        pkg = self.pkg
        kinds, fmt = pkg.policies.PolicyKind, pkg.rational.format_rat
        inst = base.with_alpha(alpha)
        alg, _ = pkg.engine.simulate(inst, kinds.ALPHA)
        opt, _ = pkg.engine.simulate(inst, kinds.SRPT)
        flow_ratio = pkg.metrics.ratio(pkg.metrics.build_report(alg), pkg.metrics.build_report(opt))
        worst = Fraction(0)
        for t in pkg.analysis.check_times(alg, opt)[1]:
            alive = len(alg.alive_at(t))
            opt_alive = len(opt.alive_at(t))
            if opt_alive:
                worst = max(worst, Fraction(alive, opt_alive))
        row = f"{fmt(alpha)},{fmt(worst)},{fmt(flow_ratio)}"
        return Outcome(digest([("sweep-item", row.encode())]), flow_ratio >= 1, (alpha, worst, flow_ratio))

    def pass_files(self, payloads):
        """sweep.csv as the command writes it for one pass over the pool."""
        fmt = self.pkg.rational.format_rat
        rows = ["alpha,max_alive_ratio,max_flow_ratio"]
        for alpha in ALPHAS:
            mine = [p for p in payloads if p[0] == alpha]
            rows.append(",".join([fmt(alpha), fmt(max(p[1] for p in mine)), fmt(max(p[2] for p in mine))]))
        return [("sweep.csv", csv_bytes(rows))]


class VerifyMix(Workload):
    """`alphasched verify --out DIR` (flow checks and refinement on) on
    random batch instances of mixed size."""

    name = "verify-mix"

    def build(self, sizes):
        adv = self.pkg.adversary
        pool = []
        for idx, n in enumerate(sizes):
            alpha = ALPHAS[idx % len(ALPHAS)]
            inst_seed = 1000 * self.seed + idx
            # Batch arrivals (density 1): the verifier's cost then varies
            # about half as much from seed to seed as with spread releases.
            inst = adv.gen_random_instance(n, 8, 1.0, inst_seed, alpha)
            pool.append(Item(f"verify-n{n}-a{alpha}-s{inst_seed}", (self.round_trip(inst),)))
        return pool

    def run(self, item):
        (inst,) = item.args
        report = self.pkg.analysis.verify_instance(inst)
        return Outcome(digest([("report.json", json_bytes(report.to_json()))]), report.ok)


class OracleCompare(Workload):
    """`alphasched compare --quantum-oracle` on instances of the test
    corpus's shape (n = 2 + s mod 5, alpha cycling over the grid)."""

    name = "oracle-compare"

    def build(self, count):
        adv = self.pkg.adversary
        pool = []
        for i in range(count):
            s = count * self.seed + i
            inst = adv.gen_random_instance(2 + s % 5, 8, 0.8, s, ALPHAS[s % 3])
            pool.append(Item(f"corpus-{s}", (self.round_trip(inst),)))
        return pool

    def run(self, item):
        (inst,) = item.args
        pkg = self.pkg
        kinds, metrics, fmt = pkg.policies.PolicyKind, pkg.metrics, pkg.rational.format_rat
        policies = (("alpha", kinds.ALPHA), ("srpt", kinds.SRPT), ("setf", kinds.SETF))
        traces = {}
        for name, kind in policies:
            base = traces["alpha"].instance if traces else inst
            traces[name], _ = pkg.engine.simulate(base, kind)
        reports = {name: metrics.build_report(trace) for name, trace in traces.items()}
        bound = Fraction(len(inst.jobs) ** 2, QUANTUM.denominator)
        rows = [metrics.FLAT_CSV_HEADER + ",quantum_flow,quantum_gap"]
        ok = True
        for name, kind in policies:
            report = reports[name]
            run = pkg.oracle.quantum_simulate(traces[name].instance, kind, QUANTUM)
            gap = abs(run.total_flow - report.total_flow)
            ok = ok and gap <= bound
            row = metrics.flat_csv_row(item.label, name, inst.alpha, report, reports["srpt"])
            rows.append(f"{row},{fmt(run.total_flow)},{fmt(gap)}")
        ok = ok and all(reports[name].total_flow >= reports["srpt"].total_flow for name in traces)
        return Outcome(digest([("compare.csv", csv_bytes(rows))]), ok)


WORKLOADS = {cls.name: cls for cls in (SimLarge, CorpusSweep, VerifyMix, OracleCompare)}
