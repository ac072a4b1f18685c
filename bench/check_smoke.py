"""The benchmark's own test: a tiny-size run of all four workloads.

    python3 bench/check_smoke.py        (or: python -m pytest bench/check_smoke.py)

It checks that
* each workload, untraced and traced, prints every metric BENCHMARK.json
  names, with its unit, and no failed item;
* every exact count repeats between two traced runs, and the counts fixed by
  the outputs (events, segments, check points) equal the recorded ones;
* the bytes the workloads digest are the bytes the CLI writes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
from tracing import COUNT_METRICS
from workloads import SIZES, WORKLOADS, digest

SEED = 1
# Counts that only a change of output bytes can move; the other counts
# (calls into a layer) may change with the program and must only repeat.
OUTPUT_COUNTS = ("engine.events", "engine.segments", "analysis.check_points")

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_result(result: dict, stdout: str, specs: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert "failed_fraction=0.0" in stdout
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        line = rf"^\s+{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}( |$)"
        assert re.search(line, stdout, re.M), m


def test_end_to_end_metrics():
    for workload in SIZES:
        result, stdout = bench(workload, 0)
        check_result(result, stdout, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values()), result


def test_traced_metrics_and_counts():
    reference = json.loads(run.REFERENCE.read_text())
    for workload in SIZES:
        first, stdout = bench(workload, 1)
        check_result(first, stdout, SPEC["per_layer"])
        assert "traced digests equal untraced" in stdout
        second, _ = bench(workload, 1)
        counts = {k: first["metrics"][k]["value"] for k in COUNT_METRICS}
        assert counts == {k: second["metrics"][k]["value"] for k in COUNT_METRICS}, workload
        recorded = reference[workload]["smoke"][str(SEED)]["counts"]
        assert {k: counts[k] for k in OUTPUT_COUNTS} == {k: recorded[k] for k in OUTPUT_COUNTS}, workload


def test_digests_are_cli_bytes():
    """One item of each workload, digested from the files the CLI writes."""
    sys.path.insert(0, str(run.SRC))
    pkg = run.import_package()
    from alphasched import cli

    out = run.OUT / "smoke-cli"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    def cli_run(*argv) -> None:
        assert cli.main([str(a) for a in argv]) == 0, argv

    def read(path) -> bytes:
        return (out / path).read_bytes()

    wl = WORKLOADS["sim-large"](pkg, SEED, "smoke")
    inst = wl.pool[0].args[0]
    pkg.model.save_instance(inst, out / "in.json")
    cli_run("simulate", "--instance", out / "in.json", "--policy", "alpha", "--out", out / "alpha")
    realized, _ = pkg.engine.simulate(inst, pkg.policies.PolicyKind.ALPHA)
    pkg.model.save_instance(realized.instance, out / "realized.json")
    cli_run("simulate", "--instance", out / "realized.json", "--policy", "srpt", "--out", out / "srpt")
    files = [(f"{p}/{f}", read(f"{p}/{f}")) for p in ("alpha", "srpt")
             for f in ("trace.csv", "events.csv", "metrics.json")]
    assert digest(files) == wl.run(wl.pool[0]).digest

    wl = WORKLOADS["verify-mix"](pkg, SEED, "smoke")
    pkg.model.save_instance(wl.pool[-1].args[0], out / "verify.json")
    cli_run("verify", "--instance", out / "verify.json", "--out", out / "verify")
    assert digest([("report.json", read("verify/report.json"))]) == wl.run(wl.pool[-1]).digest

    wl = WORKLOADS["oracle-compare"](pkg, SEED, "smoke")
    item = wl.pool[-1]
    pkg.model.save_instance(item.args[0], out / f"{item.label}.json")
    cli_run("compare", "--instance", out / f"{item.label}.json", "--quantum-oracle", "--out", out / "compare")
    assert digest([("compare.csv", read("compare/compare.csv"))]) == wl.run(item).digest

    wl = WORKLOADS["corpus-sweep"](pkg, SEED, "smoke")
    payloads = [wl.run(item).payload for item in wl.pool]
    cli_run("sweep", "--grid", "1/2,2/3,3/4", "--fuzz", SIZES["corpus-sweep"]["smoke"],
            "--seed", wl.sweep_seed, "--out", out / "sweep")
    assert read("sweep/sweep.csv") == dict(wl.pass_files(payloads))["sweep.csv"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok", flush=True)
