"""Reference flow-network builder with every dead dummy kept.

A dead dummy is a ("dummy", i, l) whose interval l gave job i no work.  The
package's ``build_flow_network`` omits it, because its out-arc has capacity 0
and no feasible flow can enter it.  This builder emits a dummy for every job
and interval, as the verifier's first builder did, so the tests can check
that the omission changes neither the max flow nor the reachability sets.
"""

from __future__ import annotations

from fractions import Fraction

from alphasched.analysis import SINK, SOURCE, FlowNetwork, TimePoint
from alphasched.model import ScheduleTrace


def build_flow_network_with_dead_dummies(
    alg_trace: ScheduleTrace, point: TimePoint, extra_points=()
) -> FlowNetwork:
    t = point.t
    jobs = [job for job in alg_trace.instance.jobs if job.release <= t]
    points = {Fraction(0), t}
    for job in jobs:
        points.add(job.release)
        done = alg_trace.completions.get(job.id)
        if done is not None and done <= t:
            points.add(done)
    points.update(Fraction(p) for p in extra_points if 0 <= p <= t)
    tps = tuple(sorted(points))

    work = point.work
    supplies = {}
    for j in sorted(point.part.alive - point.opt_alive):
        rest = alg_trace.instance.proc_of(j) - work[j]
        if rest > 0:
            supplies[j] = rest
    demands = {i: work[i] for i in sorted(point.opt_alive) if work[i] > 0}
    infinite = sum(supplies.values(), Fraction(0)) + sum(demands.values(), Fraction(1))

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
    for j, s in supplies.items():
        arcs[(SOURCE, ("job", j))] = s
    for i, d in demands.items():
        arcs[(("job", i), SINK)] = d
    return FlowNetwork(
        time_points=tps,
        jobs=tuple(job.id for job in jobs),
        arcs=arcs,
        supplies=supplies,
        demands=demands,
        infinite=infinite,
    )
