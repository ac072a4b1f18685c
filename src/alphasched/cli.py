"""Command-line front end.

Commands: simulate | compare | verify | lowerbound | sweep.  All numeric
output is exact "num/den" text; --float adds decimal columns for plotting,
and lowerbound --dos-M always writes window_ratio_float.
Outputs are byte-deterministic for fixed inputs and seeds.

Exit codes: 0 pass, 1 verification failure, 2 bad input: a usage error, an
unreadable or malformed input file, or an instance the model or the engine
rejects.  Any other exception is a bug and surfaces with its traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary
from .analysis import check_times, simulate_pair, verify_instance
from .engine import EngineError, simulate
from .metrics import (
    FLAT_CSV_HEADER,
    build_report,
    delta,
    flat_csv_row,
    integrate_curve,
    ratio,
)
from .model import (
    Instance,
    ModelError,
    ScheduleTrace,
    instance_to_json,
    load_instance,
    save_instance,
)
from .oracle import quantum_simulate
from .policies import PolicyKind
from .rational import Rat, format_rat, parse_int, parse_rat

USAGE_ERROR = 2
VERIFY_ERROR = 1

QUANTUM = Rat(1, 64)
_DECIMAL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def rational(text: str) -> Fraction:
    """argparse type of a "num/den" option."""
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def integer(text: str) -> int:
    """argparse type of an integer option: ASCII digits, as in the files."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def decimal(text: str) -> float:
    """argparse type of a decimal option: ASCII digits with an optional "-"
    and decimal point, read as a float."""
    if not _DECIMAL.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"not a decimal: {text!r}")
    return float(text)


def rational_list(text: str) -> list[Fraction]:
    """argparse type of a comma-separated list of "num/den" values."""
    return [rational(item) for item in text.split(",") if item.strip()]


def _load_instance_arg(args) -> Instance:
    inst = load_instance(args.instance)
    if args.alpha is not None:
        inst = inst.with_alpha(args.alpha)
    return inst


def _quantum_entry(inst: Instance, kind: PolicyKind, fluid_flow: Fraction) -> dict:
    run = quantum_simulate(inst, kind, QUANTUM)
    gap = abs(run.total_flow - fluid_flow)
    bound = Rat(len(inst.jobs) ** 2, QUANTUM.denominator)
    return {
        "quantum": format_rat(QUANTUM),
        "total_flow": format_rat(run.total_flow),
        "gap": format_rat(gap),
        "bound": format_rat(bound),
        "ok": gap <= bound,
    }


def cmd_simulate(args) -> int:
    inst = _load_instance_arg(args)
    kind = PolicyKind(args.policy)
    trace, log = simulate(inst, kind, horizon=args.horizon)
    if args.quantum_oracle and not trace.complete:
        raise ModelError("quantum cross-check needs a complete run")
    report = build_report(trace)
    out = Path(args.out)
    _write_text(out / "trace.csv", "\n".join(trace.csv_rows()) + "\n")
    _write_text(out / "events.csv", "\n".join(log.csv_rows()) + "\n")
    metrics = report.to_json()
    if args.float:
        metrics["total_flow_float"] = float(report.total_flow)
        metrics["makespan_float"] = float(report.makespan)
    code = 0
    if args.quantum_oracle:
        entry = _quantum_entry(trace.instance, kind, report.total_flow)
        metrics["quantum_check"] = entry
        if not entry["ok"]:
            code = VERIFY_ERROR
    _write_json(out / "metrics.json", metrics)
    return code


def cmd_compare(args) -> int:
    inst = _load_instance_arg(args)
    alg, srpt = simulate_pair(inst)
    traces = {"alpha": alg, "srpt": srpt, "setf": simulate(alg.instance, PolicyKind.SETF)[0]}
    reports = {name: build_report(tr) for name, tr in traces.items()}
    opt = reports["srpt"]
    instance_id = Path(args.instance).stem
    header = [FLAT_CSV_HEADER]
    if args.float:
        header += ["total_flow_float", "ratio_float"]
    if args.quantum_oracle:
        header += ["quantum_flow", "quantum_gap"]
    rows = [",".join(header)]
    code = 0
    for name in ("alpha", "srpt", "setf"):
        rep = reports[name]
        row = [flat_csv_row(instance_id, name, inst.alpha, rep, opt)]
        if args.float:
            r = ratio(rep, opt)
            row += [f"{float(rep.total_flow):.6f}", f"{float(r):.6f}"]
        if args.quantum_oracle:
            entry = _quantum_entry(traces[name].instance, PolicyKind(name), rep.total_flow)
            row += [entry["total_flow"], entry["gap"]]
            if not entry["ok"]:
                code = VERIFY_ERROR
        rows.append(",".join(row))
    _write_text(Path(args.out) / "compare.csv", "\n".join(rows) + "\n")
    return code


def cmd_verify(args) -> int:
    inst = _load_instance_arg(args)
    out = Path(args.out) if args.out else None
    alg_trace = None
    if args.trace_override:
        try:
            rows = Path(args.trace_override).read_text(encoding="utf-8").splitlines()
        except (OSError, ValueError) as exc:
            raise ModelError(f"cannot read trace override {args.trace_override}: {exc}") from None
        if not inst.resolved:
            raise ModelError("trace override requires a resolved instance")
        alg_trace = ScheduleTrace.from_csv_rows(inst, rows)
    report = verify_instance(inst, alg_trace=alg_trace)
    if out is not None:
        _write_json(out / "report.json", report.to_json())
    if report.ok:
        print("verify: all checks passed")
        return 0
    print(f"verify: FAILED: {json.dumps(report.first_failure, sort_keys=True)}")
    if out is not None:
        _write_json(out / "counterexample-instance.json", instance_to_json(report.instance))
        if args.trace_override:
            _write_text(
                out / "counterexample-trace.csv",
                Path(args.trace_override).read_text(encoding="utf-8"),
            )
    return VERIFY_ERROR


# The ``lowerbound`` options only some families read: dest -> (flag, default).
FAMILY_OPTION_DEFAULTS = {
    "k": ("--k", 5), "seed": ("--seed", 0), "seeds": ("--seeds", 500), "dos_m": ("--dos-M", 0),
}
# The families of ``lowerbound --which``: the options each reads (given one
# it does not read, the command exits 2), and for a phase family args ->
# (instance, measure time); ``rand`` is the Monte Carlo bound beside them.
FAMILIES = {
    "lb1": (("k", "dos_m"), lambda args: adversary.gen_det_lb1(args.alpha, args.k)),
    "lb2": (("k", "dos_m"), lambda args: adversary.gen_det_lb2(args.alpha, args.k)),
    "rand32": (("k", "seed", "dos_m"), lambda args: adversary.gen_rand32(args.alpha, args.k, args.seed)),
    "rand": (("seed", "seeds"), None),
}


def _lowerbound_phases(args, generate, out: Path | None) -> int:
    which, alpha = args.which, args.alpha
    inst, t = generate(args)
    if args.dos_m:
        inst = adversary.append_dos_tail(inst, t, args.dos_m)
    alg, opt = simulate_pair(inst)
    result = {
        "which": which,
        "alpha": format_rat(alpha),
        "k": args.k,
        "measure_time": format_rat(t),
        "delta_alg_ge1": delta(alg, t, 1),
        "delta_alg": delta(alg, t),
        "delta_opt": delta(opt, t),
    }
    label = f"{which} alpha={format_rat(alpha)} k={args.k}"
    if which == "rand32":
        result["seed"] = args.seed
        label += f" seed={args.seed}"
    if args.dos_m:
        ra, ro = build_report(alg), build_report(opt)
        hi = t + args.dos_m + 1
        wa = integrate_curve(ra.delta_curve, t, hi)
        wo = integrate_curve(ro.delta_curve, t, hi)
        result["dos_m"] = args.dos_m
        result["window_flow_alg"] = format_rat(wa)
        result["window_flow_opt"] = format_rat(wo)
        result["window_ratio"] = format_rat(wa / wo)
        result["window_ratio_float"] = float(wa / wo)
        result["total_ratio"] = format_rat(ratio(ra, ro))
    print(
        f"{label}: delta(t,1)={result['delta_alg_ge1']} delta*(t)={result['delta_opt']}"
        + (f" window_ratio={result['window_ratio_float']:.4f}" if args.dos_m else "")
    )
    if out is not None:
        _write_json(out / "lowerbound.json", result)
        save_instance(alg.instance, out / "realized-instance.json")
    return 0


def _lowerbound_rand(args, out: Path | None) -> int:
    alpha = args.alpha
    k, t = adversary.randomized_params(alpha)
    if args.seeds < 1:
        raise ModelError("--seeds must be at least 1")
    bound = 1 / (1 - alpha)
    totals = {"alg": 0, "opt": 0, "alg_cond": 0, "opt_cond": 0, "n_cond": 0}
    for seed in range(args.seed, args.seed + args.seeds):
        inst, _ = adversary.gen_rand_lb(alpha, seed)
        alg, opt = simulate_pair(inst)
        da, do = delta(alg, t, 1), delta(opt, t)
        totals["alg"] += da
        totals["opt"] += do
        if all(j.proc <= bound for j in inst.jobs):
            totals["alg_cond"] += da
            totals["opt_cond"] += do
            totals["n_cond"] += 1
    n, n_cond = args.seeds, totals["n_cond"]
    mean_alg, mean_opt = Rat(totals["alg"], n), Rat(totals["opt"], n)
    result = {
        "which": "rand",
        "alpha": format_rat(alpha),
        "k": k,
        "measure_time": format_rat(t),
        "seeds": n,
        "first_seed": args.seed,
        "mean_delta_alg_ge1": format_rat(mean_alg),
        "mean_delta_opt": format_rat(mean_opt),
        "conditioned_samples": n_cond,
        "mean_delta_alg_ge1_conditioned": (
            format_rat(Rat(totals["alg_cond"], n_cond)) if n_cond else None
        ),
        "mean_delta_opt_conditioned": (
            format_rat(Rat(totals["opt_cond"], n_cond)) if n_cond else None
        ),
    }
    print(
        f"rand alpha={format_rat(alpha)} k={k} t={t} over {n} seeds: "
        f"mean delta(t,1)={float(mean_alg):.3f} "
        f"mean delta*(t)={float(mean_opt):.3f}"
    )
    if out is not None:
        _write_json(out / "lowerbound.json", result)
    return 0


def cmd_lowerbound(args) -> int:
    reads, generate = FAMILIES[args.which]
    given = {dest for dest in FAMILY_OPTION_DEFAULTS if getattr(args, dest) is not None}
    unread = sorted(FAMILY_OPTION_DEFAULTS[dest][0] for dest in given - set(reads))
    if unread:
        raise ModelError(f"--which {args.which} does not read {', '.join(unread)}")
    for dest in FAMILY_OPTION_DEFAULTS.keys() - given:
        setattr(args, dest, FAMILY_OPTION_DEFAULTS[dest][1])
    out = Path(args.out) if args.out else None
    if generate is None:
        return _lowerbound_rand(args, out)
    return _lowerbound_phases(args, generate, out)


def _sweep_one(inst: Instance, alpha: Fraction):
    alg, opt = simulate_pair(inst.with_alpha(alpha))
    flow_ratio = ratio(build_report(alg), build_report(opt))
    worst = Rat(0)
    for t in check_times(alg, opt)[1]:
        alive = len(alg.alive_at(t))
        opt_alive = len(opt.alive_at(t))
        if opt_alive:
            worst = max(worst, Rat(alive, opt_alive))
    return worst, flow_ratio


def cmd_sweep(args) -> int:
    grid = args.grid
    if not grid:
        raise ModelError("empty alpha grid")
    for alpha in grid:
        if not (0 <= alpha < 1):
            raise ModelError(f"grid alpha {format_rat(alpha)} outside [0, 1)")
        if (1 / (1 - alpha)).denominator != 1:
            raise ModelError(
                f"grid alpha {format_rat(alpha)} has non-integer 1/(1-alpha)"
            )
    if args.fuzz < 0:
        raise ModelError("--fuzz must be nonnegative")
    if args.max_jobs < 1:
        raise ModelError("--max-jobs must be at least 1")
    if not 0 <= args.density <= 1:
        raise ModelError("--density must lie in [0, 1]")
    instances = [
        adversary.gen_random_instance(
            1 + (args.seed + i) % args.max_jobs, args.max_p, args.density, args.seed + i
        )
        for i in range(args.fuzz)
    ]
    header = ["alpha", "max_alive_ratio", "max_flow_ratio"]
    if args.float:
        header += ["max_alive_ratio_float", "max_flow_ratio_float"]
    rows = [",".join(header)]
    if instances:
        for alpha in grid:
            results = [_sweep_one(inst, alpha) for inst in instances]
            worst_alive = max(r[0] for r in results)
            worst_flow = max(r[1] for r in results)
            row = [format_rat(alpha), format_rat(worst_alive), format_rat(worst_flow)]
            if args.float:
                row += [f"{float(worst_alive):.6f}", f"{float(worst_flow):.6f}"]
            rows.append(",".join(row))
    _write_text(Path(args.out) / "sweep.csv", "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alphasched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy over an instance")
    sim.add_argument("--instance", required=True)
    sim.add_argument("--policy", choices=sorted(kind.value for kind in PolicyKind), default="alpha")
    sim.add_argument("--alpha", type=rational, help="override the instance alpha (num/den)")
    sim.add_argument("--horizon", type=rational, help="stop the run at this time (num/den)")
    sim.add_argument("--out", required=True)
    sim.add_argument("--quantum-oracle", action="store_true")
    sim.add_argument("--float", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run all three policies and compare flows")
    cmp_.add_argument("--instance", required=True)
    cmp_.add_argument("--alpha", type=rational)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--quantum-oracle", action="store_true")
    cmp_.add_argument("--float", action="store_true")
    cmp_.set_defaults(func=cmd_compare)

    ver = sub.add_parser("verify", help="machine-check the structural analysis")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--alpha", type=rational)
    ver.add_argument("--out")
    ver.add_argument("--trace-override", help="verify this trace CSV instead of simulating")
    ver.set_defaults(func=cmd_verify)

    low = sub.add_parser("lowerbound", help="reproduce the adversarial constructions")
    low.add_argument("--which", choices=sorted(FAMILIES), required=True)
    low.add_argument("--alpha", type=rational, required=True)
    for dest, (flag, default) in FAMILY_OPTION_DEFAULTS.items():
        readers = ", ".join(which for which, (reads, _) in sorted(FAMILIES.items()) if dest in reads)
        low.add_argument(flag, type=integer, dest=dest, help=f"default {default}; read by {readers}")
    low.add_argument("--out")
    low.set_defaults(func=cmd_lowerbound)

    swp = sub.add_parser("sweep", help="alpha grid over a fuzz corpus")
    swp.add_argument(
        "--grid", type=rational_list, required=True, help="comma-separated alphas (num/den)"
    )
    swp.add_argument("--fuzz", type=integer, default=50)
    swp.add_argument("--seed", type=integer, default=1)
    swp.add_argument("--max-jobs", type=integer, default=6)
    swp.add_argument("--max-p", type=integer, default=8)
    swp.add_argument("--density", type=decimal, default=0.8)
    swp.add_argument("--out", required=True)
    swp.add_argument("--float", action="store_true")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ModelError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
