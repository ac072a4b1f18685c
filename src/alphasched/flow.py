"""The interval flow network of the algorithm's trace, its exact max flow and
the work-borrowing matrix beta peeled from that flow.

At time t the intervals run between 0, t, and the releases and the
algorithm's completions up to t.  The network has a source, a sink and a
vertex per job released by t (a later job received no work).  Per job i and
interval in which i received work, a dummy vertex caps the flow through i
at that work; an interval that gave i no work has no dummy (its out-arc
would have capacity 0), so every arc has positive capacity.  A job j holds
a dummy, and has an arc into it, iff the whole interval lies inside j's
lifetime.  Supplies are the remaining work of the algorithm's alive jobs
outside the optimum's alive set O(t); demands are the received work of jobs
in O(t).  The max flow and the min cut are taken over one network,
``FlowNetwork.solved_arcs``.

Holder arcs have one capacity per instance, ``NetworkSweep.infinite`` =
total work plus 1, and no augmenting path's bottleneck is one of them.  A
dummy of job i passes at most p_i, so a holder arc into it keeps a residual
above the total work less p_i.  A path from supply job j has a source arc of
at most p_j, and a sink arc of at most p_x for a demand job x, and x is not
j.  If i is not j, the source arc is smaller; if it is, the sink arc is.  So
the witness flow is the same for every value above the total work.

Which maximum flow the solver finds changes one verdict only.  Every
maximum flow has the same value, and the vertices reachable from the source
in its residual graph are the same set, the source side of the least
minimum cut (Ford and Fulkerson 1962; Picard and Queyranne 1980).  So
``max_flow`` and ``min_cut`` read the same value and cut from every maximum
flow.  ``flow_feasible`` holds for every flow on the solved network, a
subnetwork of ``FlowNetwork.arcs`` with no arc out of a demand job but to
the sink.  ``flow_reachability`` reads no flow.  ``refine_flow`` splits each
job-to-dummy amount between the halves' dummies, and a half's dummy takes
at most the work its job received there, so ``refined_flow_feasible`` and
``refinement_direct_flow`` hold for every feasible flow.

``path_decomposition`` is witness-dependent: a maximum flow may carry a
cycle of job-to-job amounts j -> ... -> j, which the peeling discards and
the check reports.  The breadth-first witness has carried none on any
tested input, but nothing guarantees that, and the tests' depth-first
solver often returns one; another solver must return a flow without a
cycle.  On such a flow the other checks hold for every maximum flow.  Beta
reads only the source, sink and job-to-job amounts, and ``refine_flow``
keeps all three, so ``refinement_beta`` holds.  The peeled rows are the
supplies, the columns are at most the demands, and every path runs along
positive-capacity arcs, so ``beta_properties`` holds wherever
``flow_reachability`` does; where that fails, which pairs it names depends
on the witness.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .borrow import closure
from .model import ScheduleTrace, TimePoint
from .rational import Rat, format_rat

Vertex = tuple
_ZERO = Rat(0)
SOURCE: Vertex = ("source",)
SINK: Vertex = ("sink",)


@dataclass
class FlowNetwork:
    time_points: tuple[Fraction, ...]
    arcs: dict[tuple[Vertex, Vertex], Fraction]
    supplies: dict[int, Fraction]
    demands: dict[int, Fraction]
    # job-to-job steps (j, i): a positive-capacity arc from job j into a
    # dummy of job i whose own out-arc has positive capacity
    steps: frozenset[tuple[int, int]]

    @property
    def total_supply(self) -> Fraction:
        return sum(self.supplies.values(), Rat(0))

    def reach_sets(self, sources: Iterable[int]) -> dict[int, frozenset[int]]:
        """Per source job, the jobs reachable from it along positive-capacity
        arcs, read from the network's job-to-job steps."""
        onward: dict[int, list[int]] = {}
        for j, i in self.steps:
            onward.setdefault(j, []).append(i)
        return {j: closure(onward, j) for j in sources}

    def job_reachable(self, j: int) -> frozenset[int]:
        """Jobs reachable from j along positive-capacity arcs."""
        return self.reach_sets((j,))[j]

    def solved_arcs(self) -> dict[tuple[Vertex, Vertex], Fraction]:
        """The network the max flow solves: the arcs of positive capacity,
        less every arc from a demand job to anything but the sink."""
        return {
            (u, v): cap
            for (u, v), cap in self.arcs.items()
            if cap > 0 and not (u[0] == "job" and u[1] in self.demands and v != SINK)
        }


Arcs = dict[tuple[Vertex, Vertex], Fraction]


@dataclass(frozen=True)
class _Grid:
    """A network at one time less its supplies and demands: the closed
    intervals' arcs (the sweep's own map, kept while t stays) and the open
    interval's."""

    time_points: tuple[Fraction, ...]
    steps: frozenset[tuple[int, int]]
    closed_arcs: Arcs
    open_arcs: Arcs


class NetworkSweep:
    """The interval flow networks of one trace at non-decreasing times, with
    every closed interval built once.

    The fixed grid is 0, the releases and the algorithm's completions.  At
    time t the intervals run between the grid points up to t, and, when t is
    not on the grid, one open interval runs from the last of them to t.  Job
    j holds an interval [a, b] when it lies inside j's lifetime: r_j <= a and
    b <= min(C_j, t).  For a closed interval (b <= t) that is r_j <= a and
    b <= C_j, whatever t is, and the work each job received on it is fixed
    too.  So a closed interval's arcs, in the base network (index l) and in
    the refined one (halves 2l and 2l + 1, which have its holders), and its
    job-to-job steps are built once, when t first reaches b; each time adds
    only the open interval.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        jobs = trace.instance.jobs
        self.infinite = sum((job.proc for job in jobs), Rat(1))
        self._releases = [job.release for job in jobs]  # jobs are sorted by release
        self._grid = sorted({_ZERO, *self._releases, *trace.completions.values()})
        self._closed = 0  # grid intervals built so far
        self._arcs: Arcs = {}
        self._refined_arcs: Arcs = {}
        self._refined_points = [_ZERO]
        self._steps: frozenset[tuple[int, int]] = frozenset()
        self._t: Optional[Fraction] = None
        self._now: Optional[tuple[_Grid, _Grid]] = None

    def at(self, t: Fraction) -> tuple[_Grid, _Grid]:
        """The base and the refined grid at time t."""
        t = Rat(t)
        if self._t is not None and t < self._t:
            raise ValueError(f"network sweep asked for t={format_rat(t)} after t={format_rat(self._t)}")
        if t == self._t:
            return self._now
        self._t = t
        grid = self._grid
        while self._closed + 1 < len(grid) and grid[self._closed + 1] <= t:
            l, a, b = self._closed, grid[self._closed], grid[self._closed + 1]
            self._steps |= self._interval(l, a, b, self._arcs, self._refined_arcs)
            self._refined_points += [(a + b) / 2, b]
            self._closed += 1
        points, refined_points = grid[: self._closed + 1], self._refined_points
        arcs, refined_arcs, steps = {}, {}, self._steps
        last = points[-1]
        if t > last:
            steps = steps | self._interval(self._closed, last, t, arcs, refined_arcs)
            points = points + [t]
            refined_points = refined_points + [(last + t) / 2, t]
        self._now = (
            _Grid(tuple(points), steps, self._arcs, arcs),
            _Grid(tuple(refined_points), steps, self._refined_arcs, refined_arcs),
        )
        return self._now

    def _interval(
        self, l: int, a: Fraction, b: Fraction, arcs: Arcs, refined_arcs: Arcs
    ) -> frozenset[tuple[int, int]]:
        """Add the arcs of interval l = [a, b] and of its two halves to the
        base and the refined arc maps; the interval's steps."""
        trace, infinite = self.trace, self.infinite
        at_a, at_mid, at_b = trace.work_at(a), trace.work_at((a + b) / 2), trace.work_at(b)
        released = trace.instance.jobs[: bisect_right(self._releases, a)]
        holders = [
            job.id for job in released
            if (done := trace.completions.get(job.id)) is None or done >= b
        ]
        steps = set()
        for job in released:
            i = job.id
            if at_b[i] == at_a[i]:
                continue
            vertex = ("job", i)
            others = [("job", j) for j in holders if j != i]
            steps.update((holder[1], i) for holder in others)
            for into, k, lo, hi in (
                (arcs, l, at_a, at_b),
                (refined_arcs, 2 * l, at_a, at_mid),
                (refined_arcs, 2 * l + 1, at_mid, at_b),
            ):
                received = hi[i] - lo[i]
                if received:
                    dummy = ("dummy", i, k)
                    into[(dummy, vertex)] = received
                    for holder in others:
                        into[(holder, dummy)] = infinite
        return frozenset(steps)


def build_flow_network(sweep: NetworkSweep, point: TimePoint, refined: bool = False) -> FlowNetwork:
    """Interval network of the sweep's trace at the point's time t, on the
    base grid or, refined, with every interval split at its midpoint."""
    base, fine = sweep.at(point.t)
    grid = fine if refined else base
    work = point.work
    # zero-valued entries are dropped: a job with no received work absorbs
    # nothing, and only positive demands forbid outgoing flow
    supplies = {}
    for j in sorted(point.part.alive - point.opt_alive):
        rest = sweep.trace.instance.proc_of(j) - work[j]
        if rest > 0:
            supplies[j] = rest
    demands = {i: work[i] for i in sorted(point.opt_alive) if work[i] > 0}
    arcs = {**grid.closed_arcs, **grid.open_arcs}
    for j, s in supplies.items():
        arcs[(SOURCE, ("job", j))] = s
    for i, d in demands.items():
        arcs[(("job", i), SINK)] = d
    return FlowNetwork(
        time_points=grid.time_points,
        arcs=arcs,
        supplies=supplies,
        demands=demands,
        steps=grid.steps,
    )


@dataclass
class FlowResult:
    value: Fraction
    flow: dict[tuple[Vertex, Vertex], Fraction]
    # below supply only: the vertices reachable from the source in the final
    # residual graph, the source side of a minimum cut (``check_min_cut``)
    cut: Optional[frozenset[Vertex]] = None

    def job_totals(self) -> dict[tuple[int, int], Fraction]:
        """The job-level flow: from each job j into the dummies of each job
        i, summed over the intervals, keyed (j, i).  Beta is peeled from it
        and ``refinement_direct_flow`` compares it."""
        totals: dict[tuple[int, int], Fraction] = {}
        for (u, v), f in self.flow.items():
            if u[0] == "job" and v[0] == "dummy":
                key = (u[1], v[1])
                totals[key] = totals.get(key, _ZERO) + f
        return totals


def max_flow_saturates(net: FlowNetwork) -> tuple[bool, FlowResult]:
    """Exact max flow on ``net.solved_arcs()``, breadth-first augmentation in
    deterministic order.

    Vertices are numbered in the vertex tuples' own order and arcs enter the
    residual graph sorted by (tail, head), so the augmenting paths, and with
    them the witness flow, depend on the network alone.  The residual
    capacities are kept in one array: arc k of that order at 2k, its reverse
    at 2k + 1, so the flow on arc k is the residual of 2k + 1.  The solved
    network has no arc from a demand vertex other than to the sink, so the
    witness flow has no outgoing flow at any demand vertex; a path may still
    pass a demand vertex backwards, cancelling flow that entered it.

    Below supply, the result carries the source side of the final residual
    graph, whose cut capacity ``check_min_cut`` compares with the value.
    """
    arcs = sorted(net.solved_arcs().items())
    vertices = sorted({end for arc, _ in arcs for end in arc} | {SOURCE, SINK})
    number = {v: k for k, v in enumerate(vertices)}
    out: list[list[int]] = [[] for _ in vertices]  # residual arcs leaving each vertex
    heads: list[int] = []
    residual: list[Fraction] = []
    for (u, v), cap in arcs:
        a, b = number[u], number[v]
        out[a].append(len(heads))
        heads.append(b)
        residual.append(cap)
        out[b].append(len(heads))
        heads.append(a)
        residual.append(_ZERO)
    source, sink = number[SOURCE], number[SINK]
    is_open = [True, False] * len(arcs)  # residual[e] > 0, kept in step

    value = Rat(0)
    while True:
        parent = [-1] * len(vertices)
        parent[source] = len(heads)
        queue = deque([source])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            for e in out[u]:
                if is_open[e] and parent[heads[e]] < 0:
                    parent[heads[e]] = e
                    queue.append(heads[e])
        if parent[sink] < 0:
            break
        path = []
        w = sink
        while w != source:
            e = parent[w]
            path.append(e)
            w = heads[e ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
            is_open[e] = residual[e] > 0
            is_open[e ^ 1] = True
        value += push

    flow = {arc: residual[2 * k + 1] for k, (arc, _) in enumerate(arcs) if is_open[2 * k + 1]}
    if value == net.total_supply:
        return True, FlowResult(value=value, flow=flow)
    cut = frozenset(v for v, e in zip(vertices, parent) if e >= 0)
    return False, FlowResult(value=value, flow=flow, cut=cut)


@dataclass
class BetaMatrix:
    values: dict[tuple[int, int], Fraction]
    discarded_cycle_flow: Fraction = Rat(0)


def decompose_beta(result: FlowResult) -> BetaMatrix:
    """Peel source-to-sink path flows off the job-level flow, least job
    sequence first; beta sums peeled amounts by path endpoints.  Excess comes
    from the source arcs, absorption from the sink arcs, and the job-to-job
    amounts from ``result.job_totals()``.  Cycle flow carries no supply: it
    is cancelled, and any flow left once no walk reaches a sink is counted
    with it, once per job-to-job amount (logged in the result)."""
    excess: dict[int, Fraction] = {}
    absorb: dict[int, Fraction] = {}
    for (u, v), f in result.flow.items():
        if u == SOURCE:
            excess[v[1]] = f
        elif v == SINK:
            absorb[u[1]] = f
    fl: dict[int, dict[int, Fraction]] = {}
    for (j, i), f in result.job_totals().items():
        fl.setdefault(j, {})[i] = f

    beta: dict[tuple[int, int], Fraction] = {}
    discarded = Rat(0)
    for j in sorted(excess):
        while excess[j] > 0:
            path, on_path = [j], {j: 0}
            reached: Optional[int] = None
            while True:
                u = path[-1]
                if absorb.get(u, _ZERO) > 0 and len(path) > 1:
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
                # no usable outgoing flow: leftover is cycle flow around j
                break
            gamma = min([excess[j], absorb[reached]] + [fl[a][b] for a, b in zip(path, path[1:])])
            for a, b in zip(path, path[1:]):
                fl[a][b] -= gamma
            excess[j] -= gamma
            absorb[reached] -= gamma
            beta[(j, reached)] = beta.get((j, reached), _ZERO) + gamma
    discarded += sum((f for outs in fl.values() for f in outs.values() if f > 0), Rat(0))
    return BetaMatrix(values=beta, discarded_cycle_flow=discarded)


def refine_flow(net: FlowNetwork, result: FlowResult, refined: FlowNetwork) -> FlowResult:
    """Carry a flow on ``net`` over to ``refined``, the network of the same
    time with every discretization interval split at its midpoint;
    job-to-job amounts are preserved arc by arc.  The flow into a dummy
    fills its first half up to the work received there, and the rest goes
    to the second half; a half that received no work has no dummy and takes
    nothing."""
    if refined.time_points[::2] != net.time_points:
        raise ValueError("refined network does not halve the intervals of the one it refines")
    new_flow: dict[tuple[Vertex, Vertex], Fraction] = {}
    for (u, v), f in result.flow.items():
        if u == SOURCE or v == SINK:
            new_flow[(u, v)] = new_flow.get((u, v), _ZERO) + f
    inflows: dict[tuple[int, int], list[tuple[Vertex, Fraction]]] = {}
    for (u, v), f in sorted(result.flow.items()):
        if v[0] == "dummy":
            inflows.setdefault((v[1], v[2]), []).append((u, f))
    for (i, l), entries in inflows.items():
        sub1 = ("dummy", i, 2 * l)
        sub2 = ("dummy", i, 2 * l + 1)
        room1 = refined.arcs.get((sub1, ("job", i)), _ZERO)
        total1 = Rat(0)
        total2 = Rat(0)
        for u, f in entries:
            take = min(room1, f)
            if take > 0:
                new_flow[(u, sub1)] = new_flow.get((u, sub1), _ZERO) + take
                room1 -= take
                total1 += take
            rest = f - take
            if rest > 0:
                new_flow[(u, sub2)] = new_flow.get((u, sub2), _ZERO) + rest
                total2 += rest
        if total1 > 0:
            new_flow[(sub1, ("job", i))] = total1
        if total2 > 0:
            new_flow[(sub2, ("job", i))] = total2
    return FlowResult(value=result.value, flow=new_flow)
