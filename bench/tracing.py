"""Span and count recording for the traced benchmark run.

The tracer wraps public callables of the package's modules (module-level
functions and class methods) for the duration of the traced phase and puts
the originals back afterwards; no file of the package is edited.  A span
carries a name, start, end, parent span and item id.  Spans are held in
memory in flat arrays and written out once the run ends; per-name totals,
self times (duration minus child spans) and call counts are kept as the
spans close.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ITEM_SPAN = "bench.item"

TRACE_CHECKS = (
    "check_feasibility",
    "check_catch_up",
    "check_branch_observations",
    "check_clairvoyant_runs_block",
)

# (metric, unit, how it is read from the tracer) for every per-layer metric.
# "total:X" is the summed duration of spans named X, "self:X" their summed
# self time, "calls:X" their number and "count:X" a counter.
LAYER_METRICS = [
    ("adversary.generate_s", "s", "total:adversary.generate"),
    ("model.parse_s", "s", "total:model.parse"),
    ("engine.simulate_alpha_s", "s", "total:engine.simulate_alpha"),
    ("engine.simulate_srpt_s", "s", "total:engine.simulate_srpt"),
    ("engine.simulate_setf_s", "s", "total:engine.simulate_setf"),
    ("engine.self_s", "s", None),
    ("engine.us_per_event", "us/event", None),
    ("engine.build_view_s", "s", "total:engine.build_view"),
    ("engine.build_view_calls", "count", "calls:engine.build_view"),
    ("engine.events", "count", "count:engine.events"),
    ("engine.segments", "count", "count:engine.segments"),
    ("policies.decide_s", "s", "total:policies.decide"),
    ("policies.decisions_srpt", "count", "count:policies.decisions_srpt"),
    ("policies.decisions_setf", "count", "count:policies.decisions_setf"),
    ("model.trace_build_s", "s", "total:model.trace_build"),
    ("model.alive_at_s", "s", "total:model.alive_at"),
    ("model.alive_at_calls", "count", "calls:model.alive_at"),
    ("model.partition_calls", "count", "count:model.partition_calls"),
    ("model.elapsed_work_calls", "count", "count:model.elapsed_work_calls"),
    ("model.csv_rows_s", "s", "total:model.csv_rows"),
    ("engine.csv_rows_s", "s", "total:engine.csv_rows"),
    ("metrics.build_report_s", "s", "total:metrics.build_report"),
    ("metrics.to_json_s", "s", "total:metrics.to_json"),
    ("analysis.check_times_s", "s", "total:analysis.check_times"),
    ("analysis.verify_self_s", "s", "self:analysis.verify_traces"),
    ("analysis.trace_checks_s", "s", "total:analysis.trace_checks"),
    ("analysis.borrow_graph_s", "s", "total:analysis.borrow_graph"),
    ("analysis.borrow_graph_edges", "count", "count:analysis.borrow_graph_edges"),
    ("analysis.borrow_checks_s", "s", "total:analysis.borrow_checks"),
    ("analysis.local_bounds_s", "s", "total:analysis.local_bounds"),
    ("analysis.segments_s", "s", "total:analysis.segments"),
    ("analysis.flow_network_build_s", "s", "total:analysis.flow_network_build"),
    ("analysis.flow_network_builds", "count", "calls:analysis.flow_network_build"),
    ("analysis.flow_network_arcs", "count", "count:analysis.flow_network_arcs"),
    ("analysis.max_flow_s", "s", "total:analysis.max_flow"),
    ("analysis.max_flow_calls", "count", "calls:analysis.max_flow"),
    ("analysis.job_reachable_s", "s", "total:analysis.job_reachable"),
    ("analysis.flow_feasible_s", "s", "total:analysis.flow_feasible"),
    ("analysis.decompose_beta_s", "s", "total:analysis.decompose_beta"),
    ("analysis.beta_properties_s", "s", "total:analysis.beta_properties"),
    ("analysis.refine_flow_self_s", "s", "self:analysis.refine_flow"),
    ("analysis.check_points", "count", "count:analysis.check_points"),
    ("analysis.to_json_s", "s", "total:analysis.to_json"),
    ("oracle.quantum_s", "s", "total:oracle.quantum"),
    ("oracle.quantum_runs", "count", "calls:oracle.quantum"),
]

# Counts that must repeat exactly for a given workload, size and seed.
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one closed span per index
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[list] = []  # open spans: [id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_name.append(name_id)
        self.span_start.append(start - self.t0)
        self.span_end.append(end - self.t0)

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; name may be a function of the call's args.
        after(args, result) runs once the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, counter: str, fn):
        """fn with a call counter and no span, for calls too frequent to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing the wrappers ------------------------------------------------

    def _patch(self, owners, attr: str, wrap) -> None:
        """Replace owner.attr by wrap(original) on every owner, which must all
        hold the same original."""
        original = getattr(owners[0], attr)
        wrapped = wrap(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the expected callable")
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def install(self, pkg) -> None:
        engine, model = pkg.engine, pkg.model
        analysis, metrics, oracle, adversary = pkg.analysis, pkg.metrics, pkg.oracle, pkg.adversary
        counts = self.counts

        def span(name, after=None):
            return lambda fn: self.timed(name, fn, after)

        def simulate_name(args, kwargs):
            policy = args[1] if len(args) > 1 else kwargs["policy"]
            return "engine.simulate_" + getattr(policy, "value", "custom")

        def after_simulate(args, result):
            trace, log = result
            counts["engine.events"] += len(log)
            counts["engine.segments"] += len(trace.segments)

        def after_decide(args, decision):
            counts["policies.decisions_" + decision.branch] += 1

        def add_count(counter, size):
            def after(args, result):
                counts[counter] += size(result)
            return after

        for name in ("gen_det_lb1", "gen_det_lb2", "gen_rand32", "gen_rand_lb",
                     "gen_random_instance", "append_dos_tail"):
            self._patch([adversary], name, span("adversary.generate"))
        self._patch([model], "instance_from_json", span("model.parse"))

        # analysis binds simulate at import, so both names are wrapped.
        self._patch([engine, analysis], "simulate", span(simulate_name, after_simulate))
        self._patch([engine.SimState], "build_view", span("engine.build_view"))
        self._patch([engine], "decide", span("policies.decide", after_decide))
        self._patch([engine.EventLog], "csv_rows", span("engine.csv_rows"))

        trace_cls = model.ScheduleTrace
        self._patch([trace_cls], "__init__", span("model.trace_build"))
        self._patch([trace_cls], "alive_at", span("model.alive_at"))
        self._patch([trace_cls], "partition", lambda fn: self.counted("model.partition_calls", fn))
        self._patch([trace_cls], "elapsed_work", lambda fn: self.counted("model.elapsed_work_calls", fn))
        self._patch([trace_cls], "csv_rows", span("model.csv_rows"))

        self._patch([metrics], "build_report", span("metrics.build_report"))
        self._patch([metrics.MetricsReport], "to_json", span("metrics.to_json"))

        self._patch([analysis], "verify_instance", span("analysis.verify_instance"))
        self._patch([analysis], "verify_traces", span(
            "analysis.verify_traces", add_count("analysis.check_points", lambda r: len(r.time_checks))))
        self._patch([analysis], "check_times", span("analysis.check_times"))
        for name in TRACE_CHECKS:
            self._patch([analysis], name, span("analysis.trace_checks"))
        self._patch([analysis], "build_borrow_graph", span(
            "analysis.borrow_graph", add_count("analysis.borrow_graph_edges", lambda g: len(g.edges))))
        self._patch([analysis], "check_direct_borrow_order", span("analysis.borrow_checks"))
        self._patch([analysis], "check_reachability_closure", span("analysis.borrow_checks"))
        self._patch([analysis], "check_local_bounds", span("analysis.local_bounds"))
        self._patch([analysis], "compute_segments", span("analysis.segments"))
        self._patch([analysis], "build_flow_network", span(
            "analysis.flow_network_build", add_count("analysis.flow_network_arcs", lambda n: len(n.arcs))))
        self._patch([analysis], "max_flow_saturates", span("analysis.max_flow"))
        self._patch([analysis.FlowNetwork], "job_reachable", span("analysis.job_reachable"))
        self._patch([analysis], "verify_flow_feasible", span("analysis.flow_feasible"))
        self._patch([analysis], "decompose_beta", span("analysis.decompose_beta"))
        self._patch([analysis], "check_beta_properties", span("analysis.beta_properties"))
        self._patch([analysis], "refine_flow", span("analysis.refine_flow"))
        self._patch([analysis.VerificationReport], "to_json", span("analysis.to_json"))

        self._patch([oracle], "quantum_simulate", span("oracle.quantum"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); zero where nothing ran."""
        sources = {"total": self.total, "self": self.self_time, "calls": self.calls, "count": self.counts}
        out = {}
        for metric, unit, source in LAYER_METRICS:
            if source is None:
                continue
            kind, key = source.split(":", 1)
            value = sources[kind].get(key, 0)
            out[metric] = (value if unit != "count" else int(value), unit)
        engine_self = sum(v for k, v in self.self_time.items() if k.startswith("engine.simulate_"))
        events = self.counts.get("engine.events", 0)
        out["engine.self_s"] = (engine_self, "s")
        out["engine.us_per_event"] = (1e6 * engine_self / events if events else 0.0, "us/event")
        return {metric: out[metric] for metric, _, _ in LAYER_METRICS}

    def write(self, path: Path) -> None:
        """All closed spans, in order of opening, as gzipped tab-separated text."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for i in order:
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
