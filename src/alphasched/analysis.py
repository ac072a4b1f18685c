"""Structural verification of schedule pairs (algorithm vs. optimum).

Given the algorithm's trace and an SRPT trace on its realized instance (the
pair ``simulate_pair`` gives), this module machine-checks, with exact
rational arithmetic:

* the borrow graph over lifetimes and its reachability closure properties,
* the interval flow network, whose maximum flow must use the entire surplus
  of the algorithm's unfinished-and-not-optimal jobs (a flow below it comes
  with a minimum cut of the same capacity); both are taken over the one
  network ``FlowNetwork.solved_arcs`` states, with vertices in their
  tuples' own order,
* the work-borrowing matrix obtained by path-decomposing a saturating flow
  (zero off reachability, rows summing to remaining work, columns bounded by
  received work), and its stability under refining the time discretization,
* the progress-segment partition (at most |O|+1 segments, strictly nested
  dominated sets; a lemma check that holds for every input), and
* the pointwise counting bounds relating the algorithm's alive sets to the
  optimum's.

Every check returns a list of violation strings; empty means pass.  Two
return a report value beside it: ``check_local_bounds`` the alive counts and
``compute_segments`` the segment count.  A single violation carries the
exact rationals involved so it can be replayed.

``checks_at`` lists the per-time checks in run order under their report
names, and ``verify_traces`` runs it at each check time, then the trace
checks.  A time's state (``TimePoint``), borrow graph (``BorrowSweep``) and
flow networks (``NetworkSweep``) are each computed once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .engine import simulate
from .model import Instance, ModelError, Partition, ScheduleTrace, UnknownJobError, instance_to_json
from .policies import PolicyKind
from .rational import Rat, format_rat


# --------------------------------------------------------------------------
# per-time state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TimePoint:
    """Both schedules' state at one check time, computed once and read by
    every check made at that time; the only way a check gets that state."""

    t: Fraction
    work: Mapping[int, Fraction]  # the algorithm's elapsed work y_j(t), every job
    part: Partition  # the algorithm's partition at t
    opt_alive: frozenset[int]  # the optimum's alive set O(t)

    @classmethod
    def at(cls, alg_trace: ScheduleTrace, opt_trace: ScheduleTrace, t: Fraction) -> "TimePoint":
        if alg_trace.instance.jobs != opt_trace.instance.jobs:
            raise ModelError("traces must share one instance")
        t = Rat(t)
        return cls(t, alg_trace.work_at(t), alg_trace.partition(t), opt_trace.alive_at(t))


# --------------------------------------------------------------------------
# borrow graph
# --------------------------------------------------------------------------


def _closure(succ: Mapping[int, Iterable[int]], j: int) -> frozenset[int]:
    """j and every vertex reachable from it along ``succ``."""
    seen = {j}
    stack = [j]
    while stack:
        for v in succ.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


@dataclass(frozen=True)
class BorrowGraph:
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int, str]]  # (j, i, "N"|"C"): i ran inside j's lifetime
    _succ: dict[int, set[int]] = field(init=False, repr=False, compare=False)
    _reach: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        succ: dict[int, set[int]] = {}
        for j, i, _ in self.edges:
            succ.setdefault(j, set()).add(i)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_reach", {})

    def reachable(self, j: int) -> frozenset[int]:
        """Vertices reachable from j, j included; memoised per graph."""
        reach = self._reach.get(j)
        if reach is None:
            if j not in self.vertices:
                raise UnknownJobError(f"job {j} not in borrow graph")
            reach = self._reach[j] = _closure(self._succ, j)
        return reach


def build_borrow_graph(trace: ScheduleTrace, t: Fraction) -> BorrowGraph:
    """Edges (j, i, tag): job i receives work of positive measure inside j's
    lifetime [r_j, min(C_j, t)]; the tag records whether i was before (N) or
    after (C) its signal on that stretch.  The graph at one time, as
    ``BorrowSweep`` reads it off ``borrow_thresholds``."""
    return BorrowSweep(trace).at(t)


def _first_overlap(
    intervals: Sequence[tuple[Fraction, Fraction]], lo: Fraction, hi: Optional[Fraction]
) -> Optional[Fraction]:
    """Start of the earliest positive-measure overlap of sorted disjoint
    intervals with the window [lo, hi) (hi None: unbounded), if any."""
    for a, b in intervals:
        start, end = max(a, lo), b if hi is None else min(b, hi)
        if start < end:
            return start
    return None


def borrow_thresholds(trace: ScheduleTrace) -> list[tuple[Fraction, int, int, str]]:
    """(tau, j, i, tag) for every borrow edge that ever appears, sorted: the
    edge belongs to ``build_borrow_graph(trace, t)`` exactly when t > tau.

    Edge (j, i, N) looks at i's work inside [r_j, min(C_j, s_i)), edge
    (j, i, C) inside [max(r_j, s_i), C_j); j's lifetime up to t cuts either
    window at t, so the edge is present once t passes the start of the first
    overlap of i's busy intervals with the window.
    """
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
                tau = _first_overlap(trace.busy_intervals(i), lo, hi)
                if tau is not None:
                    out.append((tau, j, i, tag))
    out.sort()
    return out


class BorrowSweep:
    """The borrow graph of one trace at non-decreasing times, carried forward.

    Vertices join at their release and edges once t passes their threshold
    (``borrow_thresholds``); the graph object, and with it its memoised
    reachability, is kept while neither changes.
    """

    def __init__(self, trace: ScheduleTrace):
        self._releases = [(job.release, job.id) for job in trace.instance.jobs]
        self._thresholds = borrow_thresholds(trace)
        self._t: Optional[Fraction] = None
        self._graph = BorrowGraph((), frozenset())
        self._nv = 0
        self._ne = 0

    def at(self, t: Fraction) -> BorrowGraph:
        t = Rat(t)
        if self._t is not None and t < self._t:
            raise ModelError(f"borrow sweep asked for t={format_rat(t)} after t={format_rat(self._t)}")
        self._t = t
        nv, ne = self._nv, self._ne
        while nv < len(self._releases) and self._releases[nv][0] <= t:
            nv += 1
        while ne < len(self._thresholds) and self._thresholds[ne][0] < t:
            ne += 1
        if (nv, ne) != (self._nv, self._ne):
            self._nv, self._ne = nv, ne
            self._graph = BorrowGraph(
                tuple(j for _, j in self._releases[:nv]),
                frozenset((j, i, tag) for _, j, i, tag in self._thresholds[:ne]),
            )
        return self._graph


# --------------------------------------------------------------------------
# flow network
# --------------------------------------------------------------------------

Vertex = tuple
_ZERO = Rat(0)
SOURCE: Vertex = ("source",)
SINK: Vertex = ("sink",)


@dataclass
class FlowNetwork:
    time_points: tuple[Fraction, ...]
    jobs: tuple[int, ...]
    arcs: dict[tuple[Vertex, Vertex], Fraction]
    supplies: dict[int, Fraction]
    demands: dict[int, Fraction]
    infinite: Fraction
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
        return {j: _closure(onward, j) for j in sources}

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
    jobs: tuple[int, ...]
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
    only the open interval.  Holder arcs carry one capacity per instance,
    ``infinite`` = total work plus 1.
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
            raise ModelError(f"network sweep asked for t={format_rat(t)} after t={format_rat(self._t)}")
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
        jobs = tuple(job.id for job in self.trace.instance.jobs[: bisect_right(self._releases, t)])
        self._now = (
            _Grid(tuple(points), jobs, steps, self._arcs, arcs),
            _Grid(tuple(refined_points), jobs, steps, self._refined_arcs, refined_arcs),
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
    base grid or, refined, with every interval split at its midpoint.

    Discretization: 0, t, releases and algorithm completions up to t (and
    the midpoints).  Per job i and interval in which i received work, a
    dummy vertex caps the flow through i at that work; a job j connects to a
    dummy iff the whole interval lies inside j's lifetime.  An interval that
    gave i no work has no dummy: its out-arc would have capacity 0, so no
    feasible flow could enter it.  Every arc therefore has positive capacity.
    Supplies are the remaining work of the algorithm's alive jobs outside the
    optimum's alive set O(t); demands are the received work of jobs in O(t).
    Jobs released after t are omitted: they received no work up to t.

    Holder arcs have capacity ``sweep.infinite``, total work plus 1, and
    no augmenting path's bottleneck is one of them.  A dummy of job i passes
    at most p_i, so a holder arc into it keeps a residual above the total
    work less p_i.  A path from supply job j has a source arc of at most p_j,
    and a sink arc of at most p_x for a demand job x, and x is not j.  If i
    is not j, the source arc is smaller; if it is, the sink arc is.  So the
    witness flow is the same for every value above the total work.
    """
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
        jobs=grid.jobs,
        arcs=arcs,
        supplies=supplies,
        demands=demands,
        infinite=sweep.infinite,
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
        """Flow from each job j into the dummies of each job i, summed over
        the intervals, keyed (j, i)."""
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


def check_max_flow(net: FlowNetwork, result: FlowResult, t: Fraction) -> list[str]:
    """The max flow uses the whole supply; below it, name the min cut's source-side jobs."""
    if result.value == net.total_supply:
        return []
    witness = sorted(v[1] for v in result.cut if v[0] == "job")
    return [f"max flow {format_rat(result.value)} below supply {format_rat(net.total_supply)} "
            f"at t={format_rat(t)}: min cut source side holds jobs {witness}"]


def check_min_cut(net: FlowNetwork, result: FlowResult) -> list[str]:
    """Certificate that a flow below supply is maximum: the source side of
    its cut holds the source and not the sink, the flow leaving the source is
    the value, and the cut's capacity over ``net.solved_arcs()``, the network
    ``max_flow_saturates`` solves, equals it (Ford and Fulkerson)."""
    side = result.cut
    violations = []
    if SOURCE not in side or SINK in side:
        violations.append("min cut witness does not separate the source from the sink")
    sent = sum((f for (u, _), f in result.flow.items() if u == SOURCE), Rat(0))
    if sent != result.value:
        violations.append(
            f"flow leaving the source is {format_rat(sent)}, not the value {format_rat(result.value)}"
        )
    capacity = sum(
        (cap for (u, v), cap in net.solved_arcs().items() if u in side and v not in side),
        Rat(0),
    )
    if capacity != result.value:
        violations.append(
            f"min cut capacity {format_rat(capacity)} is not the max flow {format_rat(result.value)}"
        )
    return violations


def verify_flow_feasible(net: FlowNetwork, result: FlowResult) -> list[str]:
    """Capacity and conservation audit of a witness flow."""
    violations = []
    balance: dict[Vertex, Fraction] = {}
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
        balance[u] = balance.get(u, _ZERO) - f
        balance[v] = balance.get(v, _ZERO) + f
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


def check_flow_reachability(net: FlowNetwork, graph: BorrowGraph, t: Fraction) -> list[str]:
    """Positive-capacity reachability agrees with borrow reachability on (supply, demand) pairs."""
    return [
        f"positive-capacity reachability and borrow reachability "
        f"disagree for ({j},{i}) at t={format_rat(t)}"
        for j, reach in net.reach_sets(net.supplies).items()
        for i in net.demands
        if (i in reach) != (i in graph.reachable(j))
    ]


# --------------------------------------------------------------------------
# path decomposition -> borrowing matrix
# --------------------------------------------------------------------------


@dataclass
class BetaMatrix:
    values: dict[tuple[int, int], Fraction]
    discarded_cycle_flow: Fraction = Rat(0)


def decompose_beta(result: FlowResult) -> BetaMatrix:
    """Peel source-to-sink path flows, lexicographically smallest vertex
    sequence first; beta sums peeled amounts by path endpoints.  Any residual
    cycle flow carries no supply and is discarded (logged in the result).

    Each walk steps to the smallest head still carrying flow.  Flows only
    fall during the peeling, so a head once empty stays empty, and a pointer
    per vertex moves forward over its sorted heads to find that one."""
    fl: dict[Vertex, dict[Vertex, Fraction]] = {}
    excess: dict[int, Fraction] = {}
    absorb: dict[int, Fraction] = {}
    for (u, v), f in result.flow.items():
        if u == SOURCE:
            excess[v[1]] = f
        elif v == SINK:
            absorb[u[1]] = f
        else:
            fl.setdefault(u, {})[v] = f

    beta: dict[tuple[int, int], Fraction] = {}
    discarded = Rat(0)

    heads = {u: sorted(outs) for u, outs in fl.items()}
    skipped = dict.fromkeys(fl, 0)  # per vertex, the leading heads known empty

    def next_hop(u: Vertex) -> Optional[Vertex]:
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
            reached: Optional[int] = None
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
            beta[key] = beta.get(key, _ZERO) + gamma
    leftover = sum(
        (f for outs in fl.values() for f in outs.values() if f > 0), Rat(0)
    )
    discarded += leftover
    return BetaMatrix(values=beta, discarded_cycle_flow=discarded)


def check_path_decomposition(beta: BetaMatrix) -> list[str]:
    """A saturating flow peels into source-to-sink paths with no cycle flow."""
    if beta.discarded_cycle_flow == 0:
        return []
    return [f"path decomposition discarded cycle flow {format_rat(beta.discarded_cycle_flow)}"]


def check_beta_properties(
    beta: BetaMatrix, graph: BorrowGraph, instance: Instance, point: TimePoint
) -> list[str]:
    """Borrowing matrix properties: support inside reachability, rows equal to
    remaining work, columns bounded by received work."""
    violations = []
    sources = sorted(point.part.alive - point.opt_alive)
    sinks = sorted(point.opt_alive)
    source_set, sink_set = set(sources), set(sinks)
    reach = {j: graph.reachable(j) for j in sources}
    rows: dict[int, Fraction] = {}
    cols: dict[int, Fraction] = {}
    for (j, i), v in sorted(beta.values.items()):
        if v < 0:
            violations.append(f"beta({j},{i}) negative")
        if v > 0 and (j not in source_set or i not in sink_set):
            violations.append(f"beta({j},{i}) positive outside supply x demand")
        if v > 0 and i not in reach.get(j, frozenset()):
            violations.append(f"beta({j},{i}) positive but {i} unreachable from {j}")
        rows[j] = rows.get(j, _ZERO) + v
        cols[i] = cols.get(i, _ZERO) + v
    for j in sources:
        rs = rows.get(j, _ZERO)
        expected = instance.proc_of(j) - point.work[j]
        if rs != expected:
            violations.append(
                f"row sum of {j} is {format_rat(rs)}, expected {format_rat(expected)}"
            )
    for i in sinks:
        cs = cols.get(i, _ZERO)
        bound = point.work[i]
        if cs > bound:
            violations.append(
                f"column sum of {i} is {format_rat(cs)} > received {format_rat(bound)}"
            )
    return violations


def refine_flow(
    net: FlowNetwork,
    result: FlowResult,
    sweep: NetworkSweep,
    point: TimePoint,
) -> tuple[FlowNetwork, FlowResult]:
    """Build the network of the point's time with every discretization
    interval split at its midpoint, and carry the flow over; job-to-job
    amounts are preserved arc by arc.  The flow into a dummy fills its first
    half up to the work received there, and the rest goes to the second
    half; a half that received no work has no dummy and takes nothing.

    ``net`` must be the sweep's base network at the point's time."""
    if net.time_points[-1] != point.t:
        raise ModelError(f"network is not the one at t={format_rat(point.t)}")
    refined = build_flow_network(sweep, point, refined=True)
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
    return refined, FlowResult(value=result.value, flow=new_flow)


def check_refinement_direct_flow(net: FlowNetwork, result: FlowResult, refined: FlowResult) -> list[str]:
    """Refinement keeps each (supply, demand) pair's direct job-to-job flow."""
    direct, refined_direct = result.job_totals(), refined.job_totals()
    return [
        f"refinement changed direct flow ({j},{i}): {format_rat(a)} -> {format_rat(b)}"
        for j in net.supplies
        for i in net.demands
        if (a := direct.get((j, i), _ZERO)) != (b := refined_direct.get((j, i), _ZERO))
    ]


def check_refinement_beta(beta: BetaMatrix, refined: BetaMatrix, t: Fraction) -> list[str]:
    """Refinement keeps the borrowing matrix."""
    if refined.values == beta.values:
        return []
    return [f"refinement changed the borrowing matrix at t={format_rat(t)}"]


# --------------------------------------------------------------------------
# truncated progress and segments
# --------------------------------------------------------------------------


def compute_segments(instance: Instance, point: TimePoint) -> tuple[int, list[str]]:
    """Group the algorithm's unsignalled alive jobs outside O(t) by the set of
    optimum jobs whose truncated progress they meet or exceed; the number of
    groups (segments) and the violations.

    A lemma check, which no input can make fire: with truncated progress
    u_j = min(y_j, alpha * p_j), job j's dominated set is {i in O(t) : u_i <=
    u_j}, a down-set of the one total preorder of O(t) by u.  Two such sets
    are equal or strictly nested, and there are at most |O(t)| + 1 of them
    (one per threshold position), whatever the trace.  The dominated sets
    are kept in first-seen order, so a report would list any failure in a
    fixed order.
    """
    part, opt_alive = point.part, point.opt_alive
    candidates = sorted(part.nonclairvoyant - opt_alive)
    tvals = {
        j: min(point.work[j], instance.alpha * instance.proc_of(j))
        for j in set(candidates) | set(opt_alive)
    }
    dominated = dict.fromkeys(
        frozenset(i for i in opt_alive if tvals[j] >= tvals[i]) for j in candidates
    )
    ordered = sorted(dominated, key=len)
    violations = [
        f"dominated sets not strictly nested: {sorted(d1)} vs {sorted(d2)}"
        for d1, d2 in zip(ordered, ordered[1:])
        if not d1 < d2
    ]
    if len(ordered) > len(opt_alive) + 1:
        violations.append(
            f"segment count {len(ordered)} exceeds |O|+1 = {len(opt_alive) + 1}"
        )
    return len(ordered), violations


# --------------------------------------------------------------------------
# counting bounds
# --------------------------------------------------------------------------


def check_local_bounds(alpha: Fraction, point: TimePoint) -> tuple[dict[str, int], list[str]]:
    """Pointwise alive-count bounds of the algorithm against the optimum:
    the counts the report writes, and the violations.

    With c = 1/(1-alpha) and O = O(t): |A - O| <= (3+2c)|O|,
    |unsignalled - O| <= (2+c)|O|, |signalled - O| <= (1+c)|O| and
    |A| <= (4+2c)|O|, and nothing is alive while the optimum idles.  Stated
    for alpha with integer 1/(1-alpha); at other alphas c is rounded up, and
    nothing in the report says so.
    """
    t = point.t
    if alpha == 1:
        raise ModelError("counting bounds are undefined at alpha = 1")
    c = ceil(1 / (1 - alpha))
    part, opt_alive = point.part, point.opt_alive
    counts = {
        "alive": len(part.alive),
        "alive_minus_opt": len(part.alive - opt_alive),
        "unsignalled_minus_opt": len(part.nonclairvoyant - opt_alive),
        "signalled_minus_opt": len(part.clairvoyant - opt_alive),
        "opt_alive": len(opt_alive),
    }
    o = len(opt_alive)
    bounds = (
        ("alive_minus_opt", (3 + 2 * c) * o),
        ("unsignalled_minus_opt", (2 + c) * o),
        ("signalled_minus_opt", (1 + c) * o),
        ("alive", (4 + 2 * c) * o),
    )
    violations = [
        f"|{key}| = {counts[key]} exceeds {format_rat(bound)} at t={format_rat(t)}"
        for key, bound in bounds
        if counts[key] > bound
    ]
    if not opt_alive and part.alive:
        violations.append(
            f"optimum idle but algorithm has {sorted(part.alive)} alive at t={format_rat(t)}"
        )
    return counts, violations


# --------------------------------------------------------------------------
# trace-level invariants
# --------------------------------------------------------------------------


def check_branch_observations(trace: ScheduleTrace) -> list[str]:
    """At every event time of a fused-policy trace: on the single-job branch
    the job run has globally minimal remaining work; on the sharing branch
    every shared job has globally minimal progress.

    Rates are read as right limits, so instants strictly inside a merged
    segment (an emission that did not change the decision) are covered too.
    A rated job is alive on its whole segment (``check_feasibility``), so
    "rates dead jobs" is a lemma check.  At alpha = 1 a job signals at its
    completion, so no alive job is signalled.
    """
    alpha = trace.instance.alpha
    violations = []
    for t in trace.event_times():
        if t >= trace.makespan:
            continue
        seg = trace.segment_at(t)
        alive = trace.alive_at(t)
        if seg is None:
            continue  # idle gap; feasibility check owns non-idling
        if not alive:
            violations.append(f"segment at {format_rat(t)} rates dead jobs")
            continue
        signalled = {j for j in alive if j in trace.emissions and trace.emissions[j] <= t}
        fresh = alive - signalled
        work = trace.work_at(t)
        remaining = {j: trace.instance.proc_of(j) - work[j] for j in alive}
        srpt_side = bool(signalled)
        if signalled and fresh:
            lhs = min(remaining[j] for j in signalled)
            rhs = (1 - alpha) / alpha * min(work[j] for j in fresh)
            srpt_side = lhs <= rhs
        rated = [j for j, _ in seg.rates]
        if srpt_side:
            if len(rated) != 1:
                violations.append(
                    f"single-job branch at {format_rat(t)} rated {rated}"
                )
                continue
            k = rated[0]
            if k not in signalled:
                violations.append(
                    f"single-job branch at {format_rat(t)} ran unsignalled job {k}"
                )
            rem_k = trace.instance.proc_of(k) - work[k]
            for j in alive:
                if remaining[j] < rem_k:
                    violations.append(
                        f"job {k} run at {format_rat(t)} but job {j} has less remaining work"
                    )
        else:
            least = min(work[j] for j in fresh) if fresh else None
            for k in rated:
                if k not in fresh:
                    violations.append(
                        f"sharing branch at {format_rat(t)} rated signalled job {k}"
                    )
                    continue
                yk = work[k]
                for j in alive:
                    if work[j] < yk:
                        violations.append(
                            f"job {k} shared at {format_rat(t)} but job {j} has less progress"
                        )
            if fresh and set(rated) != {j for j in fresh if work[j] == least}:
                violations.append(
                    f"sharing branch at {format_rat(t)} did not rate the least-progressed set"
                )
    return violations


def check_clairvoyant_runs_block(trace: ScheduleTrace) -> list[str]:
    """Once a signalled job k runs at time t', no job alive at t' may run
    again before k completes, and k completes no later than any of them.

    The signalled stretch of a segment starts at max(segment start, signal
    time of k): work before the signal is not covered by the claim.
    """
    if not trace.complete:
        return []
    violations = []
    for seg in trace.segments:
        for k, _ in seg.rates:
            s_k = trace.emissions.get(k)
            if s_k is None:
                continue
            clair_lo = max(seg.start, s_k)
            if clair_lo >= seg.end:
                continue  # k not yet signalled anywhere on this stretch
            ck = trace.completions[k]
            for job in trace.instance.jobs:
                j = job.id
                if j == k:
                    continue
                cj = trace.completions[j]
                t0 = max(clair_lo, job.release)
                if t0 >= min(seg.end, cj):
                    continue  # j never alive strictly inside the signalled stretch
                if ck > cj:
                    violations.append(
                        f"job {k} ran signalled at {format_rat(t0)} but completes after job {j}"
                    )
                if ck > t0 and trace.interval_work(j, (t0, ck)) > 0:
                    violations.append(
                        f"job {j} received work during [{format_rat(t0)}, {format_rat(ck)}] "
                        f"while signalled job {k} was pending"
                    )
    return violations


def check_catch_up(trace: ScheduleTrace, times: Sequence[Fraction]) -> list[str]:
    """If an unsignalled job i is processed while j is also unsignalled, then
    j stays at least as progressed as i for as long as both stay unsignalled.
    The times must be given in increasing order."""
    violations = []
    dominated: set[tuple[int, int]] = set()  # (i, j): y_j must stay >= y_i
    for t in times:
        t = Rat(t)
        work, fresh = trace.work_at(t), trace.partition(t).nonclairvoyant
        for i, j in dominated:
            if i in fresh and j in fresh and work[j] < work[i]:
                violations.append(
                    f"catch-up violated at {format_rat(t)}: y_{j}={format_rat(work[j])} "
                    f"< y_{i}={format_rat(work[i])} after {i} ran"
                )
        seg = trace.segment_at(t)
        if seg is None or seg.start == t:
            continue  # record processing only strictly inside a segment
        for i, _ in seg.rates:
            if i in fresh:
                dominated.update((i, j) for j in fresh if j != i)
    return violations


def check_direct_borrow_order(graph: BorrowGraph, point: TimePoint) -> list[str]:
    """An unsignalled borrow edge (j -> i) between two currently unsignalled
    jobs implies j has at least i's progress."""
    t, work = point.t, point.work
    fresh = point.part.nonclairvoyant
    found = []
    for (j, i, tag) in graph.edges:
        if tag == "N" and j in fresh and i in fresh and work[j] < work[i]:
            found.append((j, i))
    return [
        f"borrow edge ({j},{i},N) at t={format_rat(t)} with "
        f"y_{j}={format_rat(work[j])} < y_{i}={format_rat(work[i])}"
        for j, i in sorted(found)
    ]


def check_reachability_closure(
    trace: ScheduleTrace, graph: BorrowGraph, point: TimePoint
) -> list[str]:
    """The lifetime of a reachability set is one interval; every job executed
    inside it belongs to the set; for alive jobs the interval ends at t."""
    t, alive = point.t, point.part.alive
    # vertices often share their reachability set: look at each set once
    seen: dict[frozenset[int], tuple[list, list[int]]] = {}
    violations = []
    for j in graph.vertices:
        reach = graph.reachable(j)
        if reach not in seen:
            intervals = trace.lifetime(reach, t)
            outsiders = []
            if len(intervals) == 1:
                lo, hi = intervals[0]
                outsiders = [
                    i
                    for i in graph.vertices
                    if i not in reach
                    and any(max(a, lo) < min(b, hi) for a, b in trace.busy_intervals(i))
                ]
            seen[reach] = (intervals, outsiders)
        intervals, outsiders = seen[reach]
        if len(intervals) != 1:
            violations.append(
                f"lifetime of reachability set of {j} at t={format_rat(t)} is "
                f"{len(intervals)} intervals"
            )
            continue
        if j in alive and intervals[0][1] != t:
            violations.append(
                f"alive job {j}: reachability lifetime ends at {format_rat(intervals[0][1])}, not t"
            )
        for i in outsiders:
            violations.append(
                f"job {i} executed inside lifetime of reachability set of {j} "
                f"but is not reachable (t={format_rat(t)})"
            )
    return violations


def check_feasibility(trace: ScheduleTrace) -> list[str]:
    """Unit speed, only alive jobs rated, and full speed whenever something
    is alive (the built-in policies never idle).  The first two are lemma
    checks: ``ExecutionSegment`` rejects rates above unit speed, and
    ``ScheduleTrace`` a job rated before its release or beyond its
    processing time, so a rated job is alive on its segment.  Nothing
    completes on a stretch with no job rated, so its alive count only
    grows: it idles with jobs alive iff the ``alive_curve`` count on its
    last piece is not 0."""
    violations = []
    busy = [seg for seg in trace.segments if seg.rates]
    for seg in busy:
        mid = (seg.start + seg.end) / 2
        alive = trace.alive_at(mid)
        for j, _ in seg.rates:
            if j not in alive:
                violations.append(f"job {j} rated while not alive at {format_rat(mid)}")
        if seg.total_rate > 1:
            violations.append(f"total rate {seg.total_rate} > 1 at {format_rat(mid)}")
        if alive and seg.total_rate != 1:
            violations.append(
                f"idle capacity at {format_rat(mid)} with alive jobs {sorted(alive)}"
            )
    breaks = [p for p, _ in trace.alive_curve]
    spans = [(seg.start, seg.end) for seg in busy]
    prev_end = Rat(0)
    for lo, hi in spans + [(trace.makespan, trace.makespan)]:
        if lo > prev_end and trace.alive_curve[bisect_left(breaks, lo) - 1][1]:
            violations.append(
                f"machine idle on [{format_rat(prev_end)}, {format_rat(lo)}] with alive jobs"
            )
        prev_end = max(prev_end, hi)
    return violations


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def check_times(alg_trace: ScheduleTrace, opt_trace: ScheduleTrace) -> tuple[list[Fraction], list[Fraction]]:
    """(event times, event times plus midpoints), shared by both traces."""
    events = sorted(set(alg_trace.event_times()) | set(opt_trace.event_times()))
    dense = events[:1]
    for a, b in zip(events, events[1:]):
        dense += ((a + b) / 2, b)
    return events, dense


@dataclass
class VerificationReport:
    instance: Instance
    ok: bool
    time_checks: list[dict]
    trace_checks: dict[str, list[str]]
    first_failure: Optional[dict]

    def to_json(self) -> dict:
        return {
            "instance": instance_to_json(self.instance),
            "ok": self.ok,
            "time_checks": self.time_checks,
            "trace_checks": self.trace_checks,
            "first_failure": self.first_failure,
        }


def checks_at(
    alg_trace: ScheduleTrace, point: TimePoint, graph: BorrowGraph, networks: NetworkSweep,
    event: bool, entry: dict,
) -> Iterator[tuple[str, list[str]]]:
    """The per-time checks in run order: (report name, violations) each, with
    the report values written into ``entry``.  The flow checks run at event
    times, and those reading beta or the refined flow on a saturating flow."""
    instance, t = alg_trace.instance, point.t
    yield "direct_borrow_order", check_direct_borrow_order(graph, point)
    yield "reachability_closure", check_reachability_closure(alg_trace, graph, point)
    if instance.alpha != 1:
        entry["counts"], violations = check_local_bounds(instance.alpha, point)
        yield "local_bounds", violations
    entry["segments"], violations = compute_segments(instance, point)
    yield "segments", violations
    if not event:
        return
    net = build_flow_network(networks, point)
    saturated, flow = max_flow_saturates(net)
    entry["supply"], entry["max_flow"] = format_rat(net.total_supply), format_rat(flow.value)
    yield "max_flow", check_max_flow(net, flow, t)
    if not saturated:
        yield "min_cut", check_min_cut(net, flow)
    yield "flow_feasible", verify_flow_feasible(net, flow)
    yield "flow_reachability", check_flow_reachability(net, graph, t)
    if not saturated:
        return
    beta = decompose_beta(flow)
    yield "path_decomposition", check_path_decomposition(beta)
    yield "beta_properties", check_beta_properties(beta, graph, instance, point)
    refined_net, refined_flow = refine_flow(net, flow, networks, point)
    yield "refined_flow_feasible", verify_flow_feasible(refined_net, refined_flow)
    yield "refinement_direct_flow", check_refinement_direct_flow(net, flow, refined_flow)
    yield "refinement_beta", check_refinement_beta(beta, decompose_beta(refined_flow), t)


def verify_traces(alg_trace: ScheduleTrace, opt_trace: ScheduleTrace) -> VerificationReport:
    """Run ``checks_at`` at every check time in increasing order, then the
    trace checks; the first failure is the first of them to fail."""
    events, dense = check_times(alg_trace, opt_trace)
    borrow, networks, event_set = BorrowSweep(alg_trace), NetworkSweep(alg_trace), set(events)
    time_checks, failures = [], []
    for t in dense:
        entry: dict = {"t": format_rat(t)}
        point = TimePoint.at(alg_trace, opt_trace, t)
        checks = checks_at(alg_trace, point, borrow.at(t), networks, t in event_set, entry)
        failed = [(check, violations) for check, violations in checks if violations]
        if failed:
            entry["violations"] = [line for _, violations in failed for line in violations]
            failures.append({"t": entry["t"], "check": failed[0][0], "violations": entry["violations"]})
        time_checks.append(entry)
    trace_checks = {
        "feasibility_alg": check_feasibility(alg_trace),
        "feasibility_opt": check_feasibility(opt_trace),
        "catch_up": check_catch_up(alg_trace, dense),
        "branch_observations": check_branch_observations(alg_trace),
        "clairvoyant_runs_block": check_clairvoyant_runs_block(alg_trace),
    }
    failures += [{"check": check, "violations": v} for check, v in trace_checks.items() if v]
    return VerificationReport(
        instance=alg_trace.instance,
        ok=not failures,
        time_checks=time_checks,
        trace_checks=trace_checks,
        first_failure=failures[0] if failures else None,
    )


def simulate_pair(
    instance: Instance, alg_trace: Optional[ScheduleTrace] = None
) -> tuple[ScheduleTrace, ScheduleTrace]:
    """The compared pair: the fused rule's trace on the instance (or the given
    alg_trace, one read from a file, say) and SRPT's trace on that trace's
    realized instance (adversary commits resolved), since SRPT needs full
    knowledge."""
    if alg_trace is None:
        alg_trace, _ = simulate(instance, PolicyKind.ALPHA)
    opt_trace, _ = simulate(alg_trace.instance, PolicyKind.SRPT)
    return alg_trace, opt_trace


def verify_instance(
    instance: Instance, *, alg_trace: Optional[ScheduleTrace] = None
) -> VerificationReport:
    """Verify the pair ``simulate_pair`` gives for the instance."""
    return verify_traces(*simulate_pair(instance, alg_trace))
