"""Reference builders of the verifier's graphs, each building one graph from
scratch.

``build_borrow_graph_from_scratch`` states the borrow-edge rule directly:
it scans every pair of jobs released by t for work of positive measure
inside a lifetime.  The package reads the same edges off
``borrow_thresholds``, and the tests compare every swept graph with it.

``borrow_thresholds_all_pairs`` lists the edge thresholds as the package
once did, trying every ordered pair of jobs; the package's
``borrow_thresholds`` tries only the jobs that ran inside j's lifetime, and
the tests compare the two lists.

``network_from_arcs`` indexes an arbitrary arc map for the package's
solver, detecting each interval's hub where the package's sweep writes it
by construction: a layer gets one only where it is complete (each dummy's one
out-arc goes to its job, and the holder arcs are exactly those from each
holder job into each dummy but its own) and every holder arc exceeds the
total supply; elsewhere it keeps the direct arcs, less those into a dummy
with no positive out-arc.  Hand-built networks, and the tests that edit a
built one, go through it.

``build_flow_network_from_scratch`` builds the network of one time as the
package's ``NetworkSweep`` does, with nothing carried from an earlier time,
and indexes it through ``network_from_arcs``: the tests compare every swept
base and refined network with it, arc for arc, and each base network's
constructed index with the detected one.

``build_flow_network_with_dead_dummies`` also keeps every dead dummy, a
("dummy", i, l) whose interval l gave job i no work.  The package omits it,
because its out-arc has capacity 0 and no feasible flow can enter it.  This
builder emits a dummy for every job and interval, as the verifier's first
builder did, so the tests can check that the omission changes neither the
max flow nor the reachability sets.

Both network builders give holder arcs the sweep's per-instance capacity,
total work plus 1, and read the job-to-job steps off the arcs.

``max_flow_depth_first`` is a second exact max flow with the contract of
``flow.max_flow_saturates`` and a different witness: depth-first
augmentation over the arcs in a seeded order.  Its witness often carries a
cycle, which ``path_decomposition`` reports; ``without_cycles`` cancels
them.  The tests run the verifier with each solver and compare the reports.

``decompose_beta_by_vertex`` peels beta off the vertex-level flow, walking
through every dummy, as the package did before it peeled the job-level
flow; the tests compare the two on the witnesses of both solvers.

``verify_flow_feasible_on_rats``, ``job_totals_on_rats`` and
``decompose_beta_on_rats`` are the flow audit, the job-level flow and the
job-level peel as the package computed them before it scaled the amounts to
ints over one denominator: one ``Rat`` operation per sign, capacity,
balance, outflow, summed and peeled amount.  The tests compare each with
the package on flows of every kind, negative amounts and unbalanced
vertices included, where the vertex-level peel, whose walks stop at a dummy
that passes less on than it takes in, is no reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby
from types import MappingProxyType

from alphasched.borrow import BorrowGraph
from alphasched.flow import SINK, SOURCE, BetaMatrix, FlowNetwork, FlowResult, ResidualIndex, index_arcs
from alphasched.model import ScheduleTrace, TimePoint
from alphasched.rational import Rat, format_rat


def build_borrow_graph_from_scratch(trace: ScheduleTrace, t) -> BorrowGraph:
    """Edges (j, i, tag): job i receives work of positive measure inside j's
    lifetime [r_j, min(C_j, t)]; the tag records whether i was before (N) or
    after (C) its signal on that stretch."""
    t = Fraction(t)
    ids = [job.id for job in trace.instance.jobs if job.release <= t]
    signals = trace.emissions
    edges = set()
    for j in ids:
        lo = trace.instance.job(j).release
        hi = trace.lifetime_end(j, t)
        if hi <= lo:
            continue
        for i in ids:
            if i == j:
                continue
            s_i = signals.get(i)
            for a, b in trace.busy_intervals(i):
                if a >= hi:
                    break
                ov_lo, ov_hi = max(a, lo), min(b, hi)
                if ov_lo >= ov_hi:
                    continue
                pre_signal_hi = ov_hi if s_i is None else min(ov_hi, s_i)
                if ov_lo < pre_signal_hi:
                    edges.add((j, i, "N"))
                if s_i is not None and max(ov_lo, s_i) < ov_hi:
                    edges.add((j, i, "C"))
    return BorrowGraph(tuple(ids), frozenset(edges))


def borrow_thresholds_all_pairs(trace: ScheduleTrace) -> list:
    """(tau, j, i, tag) for every borrow edge that ever appears, sorted,
    found by trying every ordered pair of jobs."""
    out = []
    for job_j in trace.instance.jobs:
        j, r_j = job_j.id, job_j.release
        c_j = trace.completions.get(j)
        for job_i in trace.instance.jobs:
            i = job_i.id
            if i == j:
                continue
            s_i = trace.emissions.get(i)
            windows = {"N": (r_j, min((x for x in (c_j, s_i) if x is not None), default=None))}
            if s_i is not None:
                windows["C"] = (max(r_j, s_i), c_j)
            for tag, (lo, hi) in windows.items():
                for a, b in trace.busy_intervals(i):
                    start, end = max(a, lo), b if hi is None else min(b, hi)
                    if start < end:
                        out.append((start, j, i, tag))
                        break
    out.sort()
    return out


def steps_of(arcs) -> frozenset:
    """(j, i) for every positive-capacity arc from job j into a dummy of job
    i whose own out-arc has positive capacity."""
    open_dummies = {
        u for (u, v), cap in arcs.items() if u[0] == "dummy" and v == ("job", u[1]) and cap > 0
    }
    return frozenset(
        (u[1], v[1]) for (u, v), cap in arcs.items() if v in open_dummies and u[0] == "job" and cap > 0
    )


def _interval_of(item) -> int | None:
    """The interval of an arc into or out of a dummy; None for the others."""
    (u, v), _ = item
    if v[0] == "dummy":
        return v[2]
    if u[0] == "dummy":
        return u[2]
    return None


def _layer_arcs(l, arcs, bound):
    """Interval l's arcs, by (tail, head), as the index holds them: through
    one hub ("hub", l) at the least holder arc's capacity where the layer is
    complete and every holder arc exceeds ``bound``; otherwise the arcs, less
    those into a dummy with no out-arc."""
    n = 0
    while n < len(arcs) and arcs[n][0][0][0] == "dummy":
        n += 1
    own = arcs[:n]
    dummies = [u for (u, _), _ in own]
    live = set(dummies)
    holder_arcs = [item for item in arcs[n:] if item[0][1] in live]
    holders = sorted({u for (u, _), _ in holder_arcs})
    if (
        holder_arcs
        and all(v == ("job", u[1]) for (u, v), _ in own)
        and all(h[0] == "job" for h in holders)
        and [arc for arc, _ in holder_arcs] == [(h, d) for h in holders for d in dummies if h[1] != d[1]]
        and (cap := min(cap for _, cap in holder_arcs)) > bound
    ):
        hub = ("hub", l)
        return own + [((hub, d), cap) for d in dummies] + [((h, hub), cap) for h in holders]
    live = {u for (u, _), _ in arcs if u[0] == "dummy"}
    return [item for item in arcs if item[0][1][0] != "dummy" or item[0][1] in live]


def network_from_arcs(time_points, arcs, supplies, demands) -> FlowNetwork:
    """A network of the given arcs, read-only, with its job-to-job steps and
    its residual index: the positive-capacity arcs per interval l, in
    increasing l, by (tail, head), each interval as ``_layer_arcs`` holds it
    for the total supply, then the arcs of no interval by (tail, head)."""

    def order(item):
        l = _interval_of(item)
        return (l is None, l or 0, item[0])

    bound = sum(supplies.values(), Fraction(0))
    positive = sorted(((arc, cap) for arc, cap in arcs.items() if cap > 0), key=order)
    indexed = []
    for l, layer in groupby(positive, key=_interval_of):
        layer = list(layer)
        indexed += layer if l is None else _layer_arcs(l, layer, bound)
    empty = ResidualIndex([SOURCE, SINK], {SOURCE: 0, SINK: 1}, [], [], [[], []])
    return FlowNetwork(
        time_points=tuple(time_points),
        arcs=MappingProxyType(dict(arcs)),
        supplies=dict(supplies),
        demands=dict(demands),
        steps=steps_of(arcs),
        index=index_arcs(empty, indexed),
    )


def edited(net: FlowNetwork, changes) -> FlowNetwork:
    """``net`` with the arcs of ``changes`` set to their capacities there,
    rebuilt through ``network_from_arcs``."""
    return network_from_arcs(net.time_points, {**net.arcs, **changes}, net.supplies, net.demands)


def _grid(alg_trace: ScheduleTrace, point: TimePoint, extra_points):
    t = point.t
    jobs = [job for job in alg_trace.instance.jobs if job.release <= t]
    points = {Fraction(0), t}
    for job in jobs:
        points.add(job.release)
        done = alg_trace.completions.get(job.id)
        if done is not None and done <= t:
            points.add(done)
    points.update(Fraction(p) for p in extra_points if 0 <= p <= t)
    return jobs, tuple(sorted(points))


def _network(alg_trace, point, tps, arcs) -> FlowNetwork:
    work = point.work
    supplies = {}
    for j in sorted(point.part.alive - point.opt_alive):
        rest = alg_trace.instance.proc_of(j) - work[j]
        if rest > 0:
            supplies[j] = rest
    demands = {i: work[i] for i in sorted(point.opt_alive) if work[i] > 0}
    for j, s in supplies.items():
        arcs[(SOURCE, ("job", j))] = s
    for i, d in demands.items():
        arcs[(("job", i), SINK)] = d
    return network_from_arcs(tps, arcs, supplies, demands)


def infinite_of(alg_trace: ScheduleTrace) -> Fraction:
    return sum((job.proc for job in alg_trace.instance.jobs), Fraction(1))


def build_flow_network_from_scratch(
    alg_trace: ScheduleTrace, point: TimePoint, extra_points=()
) -> FlowNetwork:
    t = point.t
    jobs, tps = _grid(alg_trace, point, extra_points)
    infinite = infinite_of(alg_trace)
    columns = [alg_trace.work_at(p) for p in tps]
    # lifetimes [r_j, min(C_j, t)] run between grid points: keep them as
    # index ranges, and list per interval the jobs whose lifetime holds it
    index = {p: k for k, p in enumerate(tps)}
    spans = [(job.id, index[job.release], index[alg_trace.lifetime_end(job.id, t)]) for job in jobs]
    holders = [[("job", j) for j, lo, hi in spans if lo <= l < hi] for l in range(len(tps) - 1)]
    arcs = {}
    for job in jobs:
        i = job.id
        vertex = ("job", i)
        for l in range(len(tps) - 1):
            received = columns[l + 1][i] - columns[l][i]
            if not received:
                continue
            dummy = ("dummy", i, l)
            arcs[(dummy, vertex)] = received
            for holder in holders[l]:
                if holder != vertex:
                    arcs[(holder, dummy)] = infinite
    return _network(alg_trace, point, tps, arcs)


def build_flow_network_with_dead_dummies(
    alg_trace: ScheduleTrace, point: TimePoint, extra_points=()
) -> FlowNetwork:
    t = point.t
    jobs, tps = _grid(alg_trace, point, extra_points)
    infinite = infinite_of(alg_trace)
    arcs = {}
    for job in jobs:
        i = job.id
        for l, (a, b) in enumerate(zip(tps, tps[1:])):
            dummy = ("dummy", i, l)
            arcs[(dummy, ("job", i))] = alg_trace.elapsed_work(i, b) - alg_trace.elapsed_work(i, a)
            for holder in jobs:
                j = holder.id
                if j != i and holder.release <= a and b <= alg_trace.lifetime_end(j, t):
                    arcs[(("job", j), dummy)] = infinite
    return _network(alg_trace, point, tps, arcs)


def max_flow_depth_first(net: FlowNetwork, seed: int) -> tuple[bool, FlowResult]:
    """Exact max flow on ``net.solved_arcs()``: depth-first search for each
    augmenting path, over the arcs in an order shuffled by ``seed``.  As in
    ``max_flow_saturates``, the flow lists every arc that carries some, in
    sorted order, and below supply the result carries the vertices reachable
    from the source in the final residual graph."""
    arcs = sorted(net.solved_arcs().items())
    random.Random(seed).shuffle(arcs)
    out = {SOURCE: [], SINK: []}  # residual arcs leaving each vertex
    heads, residual = [], []
    for (u, v), cap in arcs:
        out.setdefault(u, []).append(len(heads))
        heads.append(v)
        residual.append(cap)
        out.setdefault(v, []).append(len(heads))
        heads.append(u)
        residual.append(Fraction(0))
    value = Fraction(0)
    while True:
        parent = {}  # vertex -> residual arc it was reached by
        stack = [(SOURCE, None)]
        while stack and SINK not in parent:
            u, e = stack.pop()
            if u in parent:
                continue
            parent[u] = e
            stack += [(heads[f], f) for f in out[u] if residual[f] > 0 and heads[f] not in parent]
        if SINK not in parent:
            break
        path = []
        w = SINK
        while parent[w] is not None:
            path.append(parent[w])
            w = heads[parent[w] ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
        value += push
    flow = dict(sorted((arc, residual[2 * k + 1]) for k, (arc, _) in enumerate(arcs)))
    flow = {arc: f for arc, f in flow.items() if f > 0}
    if value == net.total_supply:
        return True, FlowResult(value=value, flow=flow)
    return False, FlowResult(value=value, flow=flow, cut=frozenset(parent))


def without_cycles(result: FlowResult) -> FlowResult:
    """The flow less every cycle it carries, found depth-first and cancelled
    by its least arc flow; the value, the cut and the flow on every source
    and sink arc stay."""
    flow = dict(result.flow)
    while True:
        onward = {}
        for u, v in flow:
            onward.setdefault(u, []).append(v)
        cycle = _cycle(onward)
        if cycle is None:
            return FlowResult(value=result.value, flow=flow, cut=result.cut)
        arcs = list(zip(cycle, cycle[1:]))
        gamma = min(flow[arc] for arc in arcs)
        for arc in arcs:
            flow[arc] -= gamma
            if not flow[arc]:
                del flow[arc]


def _cycle(onward):
    """A closed walk u, ..., u along ``onward`` visiting no vertex twice
    but u, or None."""
    done, index, path = set(), {}, []

    def visit(u):
        index[u] = len(path)
        path.append(u)
        for v in sorted(onward.get(u, ())):
            if v in index:
                return path[index[v]:] + [v]
            if v not in done and (found := visit(v)):
                return found
        del index[path.pop()]
        done.add(u)
        return None

    for root in sorted(onward):
        if root not in done and (found := visit(root)):
            return found
    return None


def decompose_beta_by_vertex(result: FlowResult) -> BetaMatrix:
    """``flow.decompose_beta`` on the vertex-level flow: the walks pass
    every dummy, and a pointer per vertex moves forward over its sorted
    heads to the least one still carrying flow.  Flow left after the peeling
    counts on every arc it is left on."""
    fl, excess, absorb = {}, {}, {}
    for (u, v), f in result.flow.items():
        if u == SOURCE:
            excess[v[1]] = f
        elif v == SINK:
            absorb[u[1]] = f
        else:
            fl.setdefault(u, {})[v] = f

    beta = {}
    discarded = Fraction(0)
    heads = {u: sorted(outs) for u, outs in fl.items()}
    skipped = dict.fromkeys(fl, 0)  # per vertex, the leading heads known empty

    def next_hop(u):
        order = heads.get(u)
        if order is None:
            return None
        outs, k = fl[u], skipped[u]
        while k < len(order) and outs[order[k]] <= 0:
            k += 1
        skipped[u] = k
        return order[k] if k < len(order) else None

    for j in sorted(excess):
        while excess[j] > 0:
            path = [("job", j)]
            on_path = {("job", j): 0}
            reached = None
            while True:
                u = path[-1]
                if u[0] == "job" and u[1] in absorb and absorb[u[1]] > 0 and len(path) > 1:
                    reached = u[1]
                    break
                v = next_hop(u)
                if v is None:
                    break
                if v in on_path:
                    # cancel the cycle and restart the walk
                    start = on_path[v]
                    cycle = path[start:] + [v]
                    gamma = min(fl[a][b] for a, b in zip(cycle, cycle[1:]))
                    for a, b in zip(cycle, cycle[1:]):
                        fl[a][b] -= gamma
                    discarded += gamma
                    path = [("job", j)]
                    on_path = {("job", j): 0}
                    continue
                on_path[v] = len(path)
                path.append(v)
            if reached is None:
                # no usable outgoing flow: leftover is cycle flow around j
                break
            gamma = min(
                [excess[j], absorb[reached]]
                + [fl[a][b] for a, b in zip(path, path[1:])]
            )
            for a, b in zip(path, path[1:]):
                fl[a][b] -= gamma
            excess[j] -= gamma
            absorb[reached] -= gamma
            key = (j, reached)
            beta[key] = beta.get(key, Fraction(0)) + gamma
    leftover = sum(
        (f for outs in fl.values() for f in outs.values() if f > 0), Fraction(0)
    )
    discarded += leftover
    return BetaMatrix(values=beta, discarded_cycle_flow=discarded)


def verify_flow_feasible_on_rats(net: FlowNetwork, result: FlowResult) -> list:
    """``analysis.verify_flow_feasible`` computed on the amounts as given."""
    violations = []
    balance = {}
    outflow = {("job", i): Rat(0) for i in net.demands}  # other than to the sink
    for (u, v), f in result.flow.items():
        if f < 0:
            violations.append(f"negative flow on {u}->{v}")
        cap = net.arcs.get((u, v))
        if cap is None:
            violations.append(f"flow on missing arc {u}->{v}")
        elif f > cap:
            violations.append(
                f"capacity violated on {u}->{v}: {format_rat(f)} > {format_rat(cap)}"
            )
        balance[u] = balance.get(u, Rat(0)) - f
        balance[v] = balance.get(v, Rat(0)) + f
        if u in outflow and v != SINK:
            outflow[u] += f
    for v, b in balance.items():
        if v in (SOURCE, SINK):
            continue
        if b != 0:
            violations.append(f"conservation violated at {v}: net {format_rat(b)}")
    for i in net.demands:
        out = outflow[("job", i)]
        if out != 0:
            violations.append(f"demand job {i} has outgoing flow {format_rat(out)}")
    return violations


def job_totals_on_rats(result: FlowResult) -> dict:
    """``FlowResult.job_totals`` summed on the amounts as given."""
    totals = {}
    for (u, v), f in result.flow.items():
        if u[0] == "job" and v[0] == "dummy":
            key = (u[1], v[1])
            totals[key] = totals.get(key, Rat(0)) + f
    return totals


def decompose_beta_on_rats(result: FlowResult) -> BetaMatrix:
    """``flow.decompose_beta`` computed on the amounts as given."""
    excess, absorb, fl = {}, {}, {}
    for (u, v), f in result.flow.items():
        if u == SOURCE:
            excess[v[1]] = f
        elif v == SINK:
            absorb[u[1]] = f
    for (j, i), f in job_totals_on_rats(result).items():
        fl.setdefault(j, {})[i] = f

    beta = {}
    discarded = Rat(0)
    for j in sorted(excess):
        while excess[j] > 0:
            path, on_path = [j], {j: 0}
            reached = None
            while True:
                u = path[-1]
                if absorb.get(u, Rat(0)) > 0 and len(path) > 1:
                    reached = u
                    break
                v = min((i for i, f in fl.get(u, {}).items() if f > 0), default=None)
                if v is None:
                    break
                if v in on_path:
                    # cancel the cycle and restart the walk
                    cycle = path[on_path[v]:] + [v]
                    gamma = min(fl[a][b] for a, b in zip(cycle, cycle[1:]))
                    for a, b in zip(cycle, cycle[1:]):
                        fl[a][b] -= gamma
                    discarded += gamma
                    path, on_path = [j], {j: 0}
                    continue
                on_path[v] = len(path)
                path.append(v)
            if reached is None:
                break
            gamma = min([excess[j], absorb[reached]] + [fl[a][b] for a, b in zip(path, path[1:])])
            for a, b in zip(path, path[1:]):
                fl[a][b] -= gamma
            excess[j] -= gamma
            absorb[reached] -= gamma
            beta[(j, reached)] = beta.get((j, reached), Rat(0)) + gamma
    discarded += sum((f for outs in fl.values() for f in outs.values() if f > 0), Rat(0))
    return BetaMatrix(values=beta, discarded_cycle_flow=discarded)
