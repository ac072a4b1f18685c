"""The benchmark's tracer must keep finding the names it wraps.

bench/tracing.py replaces package callables by name for its traced run; a
rename in the package would otherwise only show in the benchmark's own smoke
run.  These tests install the tracer on the imported modules, run
simulations through it and check that uninstalling puts every original back,
and that the engine still builds one view and makes one decision per event
step.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

from alphasched import adversary, analysis, engine, metrics, model, oracle, policies, rational
from alphasched.model import Instance, Job
from alphasched.policies import PolicyKind
from conftest import point_at
from flow_reference import build_flow_network_from_scratch

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(pkg):
    """Every module and class whose attributes the tracer may replace."""
    classes = [
        engine.SimState,
        engine.EventLog,
        model.ScheduleTrace,
        metrics.MetricsReport,
        analysis.FlowNetwork,
        analysis.VerificationReport,
    ]
    return list(vars(pkg).values()) + classes


def package():
    return SimpleNamespace(
        adversary=adversary, analysis=analysis, engine=engine, metrics=metrics,
        model=model, oracle=oracle, policies=policies, rational=rational,
    )


def test_install_and_uninstall_restore_every_original():
    pkg = package()
    before = [dict(vars(ns)) for ns in namespaces(pkg)]
    tracer = load_tracing().Tracer()
    tracer.install(pkg)
    try:
        # p = 4 and p = 2 at alpha 1/2: share, then run the signalled short job
        inst = Instance((Job(1, 0, 4), Job(2, 0, 2)), F(1, 2))
        engine.simulate(inst, PolicyKind.ALPHA)
    finally:
        tracer.uninstall()
    after = [dict(vars(ns)) for ns in namespaces(pkg)]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)
    decisions = tracer.calls["policies.decide"]
    assert decisions > 0 and tracer.calls["engine.build_view"] == decisions
    assert tracer.counts["policies.decisions_setf"] > 0
    assert tracer.counts["policies.decisions_srpt"] > 0
    assert tracer.calls["engine.simulate_alpha"] == 1


def test_lower_bound_counts_are_pinned():
    # the fused rule on lb2 (alpha 1/2, k 3) with a DoS tail of 20 unit jobs,
    # then SRPT on the realized instance.  An engine that decides more or
    # less often than once per stop (SRPT and SETF do not stop at
    # emissions), or a tracer that no longer finds its names, moves these
    # counts; the two decisions beyond srpt + setf are the idle ones that
    # end each run
    inst, t = adversary.gen_det_lb2(F(1, 2), 3)
    inst = adversary.append_dos_tail(inst, t, 20)
    tracer = load_tracing().Tracer()
    tracer.install(package())
    try:
        trace, _ = engine.simulate(inst, PolicyKind.ALPHA)
        engine.simulate(trace.instance, PolicyKind.SRPT)
    finally:
        tracer.uninstall()
    counts = {name: value for name, (value, _) in tracer.layer_metrics().items()}
    assert counts["engine.events"] == 200
    assert counts["engine.build_view_calls"] == 85
    assert counts["policies.decisions_srpt"] == 54
    assert counts["policies.decisions_setf"] == 29
    assert tracer.counts["policies.decisions_idle"] == 2


def test_traced_verifier_counts_every_network_it_builds():
    # the verifier must build its base and refined networks through the
    # wrapped build_flow_network: a path around it would read 0 builds and
    # 0 arcs here and pass every other test.  The expected figures come from
    # the reference builder at the same event times; an ok report means
    # every max flow saturated, so every event time also built the refined one
    inst = adversary.gen_random_instance(6, 8, 1.0, seed=6, alpha=F(1, 2))
    tracer = load_tracing().Tracer()
    tracer.install(package())
    try:
        report = analysis.verify_instance(inst)
    finally:
        tracer.uninstall()
    assert report.ok
    alg, opt = analysis.simulate_pair(inst)
    events = analysis.check_times(alg, opt)[0]
    arcs = 0
    for t in events:
        point = point_at(alg, opt, t)
        net = build_flow_network_from_scratch(alg, point)
        tps = net.time_points
        refined = build_flow_network_from_scratch(alg, point, [(a + b) / 2 for a, b in zip(tps, tps[1:])])
        arcs += len(net.arcs) + len(refined.arcs)
    assert tracer.calls["analysis.flow_network_build"] == 2 * len(events)
    assert tracer.counts["analysis.flow_network_arcs"] == arcs
