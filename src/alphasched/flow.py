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
total work plus 1, and no augmenting path's bottleneck is one of them.  Each
augmenting path is simple and pushes at most what its source arc has left,
so no arc ever carries more than the value, and the value plus a push is at
most the total supply.  An arc of capacity above the total supply therefore
keeps a forward residual above every push, and the witness flow is the same
for every such capacity.

The solver works on a residual index (``ResidualIndex``) in which each
interval's holder -> dummy layer is one hub: holder -> ("hub", l) ->
dummy (i, l), both arcs at the holder capacity ``infinite``.  The sweep
builds every layer complete, every holder j having an arc into every dummy
(i, l) of the interval but its own, so it writes the hub directly:
``NetworkSweep`` indexes each closed interval once, and
``build_flow_network`` adds the open interval and the sink and source arcs
to a copy, in index order, (interval, tail, head) with the sink and source
arcs last.  A layer with no holder arc keeps only its dummies' arcs.  The
rule by which an arbitrary arc map gets its hubs, for hand-built networks,
lives in the tests' reference builder.

The hub is equivalent.  Routing each amount on j -> (i, l) through the hub
turns a flow on the network into one on the index, and the three steps
below turn a flow on the index back into one on the network; both keep
every source and sink arc.  No holder arc and no hub arc can bind, since
each carries at most the value, which is at most the total supply: the
argument above holds for the hub's arcs as it does for the holder arcs.  So
the two have the same maximum value, and the solver's maximum flow on the
index maps to a maximum flow on the network.

1. Cancel every own-dummy cycle j -> hub_l -> (j, l) -> j, by the lesser of
   j's flow into the hub and the hub's flow into (j, l).  The hub is the
   only arc into (j, l), and the arc to j the only one out, so afterwards
   no job both sends flow into a hub and takes flow from it.
2. Split each hub's inflow over its outflow, holders and dummies each in
   vertex order.  The two sums are equal, and by step 1 every pair the
   split makes is a holder j and a dummy (i, l) with i not j, which the
   complete layer joins by an arc.  No amount exceeds the total supply.
3. Cancel any cycle left among the jobs and dummies, each by its least arc
   flow.  A cancellation keeps the value, the source and sink arcs and
   feasibility, and empties at least one arc, so this ends with a witness
   that carries no cycle.

Which maximum flow the solver finds changes one verdict only.  Every
maximum flow has the same value, and the vertices reachable from the source
in its residual graph are the same set, the source side of the least
minimum cut (Ford and Fulkerson 1962; Picard and Queyranne 1980).  So
``max_flow`` and ``min_cut`` read the same value and cut from every maximum
flow; the solver takes the cut as the source side of the mapped flow's
residual graph on ``FlowNetwork.solved_arcs``.  ``flow_feasible`` holds for
every flow on the solved network, a subnetwork of ``FlowNetwork.arcs`` with
no arc out of a demand job but to the sink.  ``flow_reachability`` reads no
flow.  ``refine_flow`` splits each job-to-dummy amount between the halves'
dummies, and a half's dummy takes at most the work its job received there,
so ``refined_flow_feasible`` and ``refinement_direct_flow`` hold for every
feasible flow.

``path_decomposition`` is witness-dependent: a maximum flow may carry a
cycle of job-to-job amounts j -> ... -> j, which the peeling discards and
the check reports; the tests' depth-first solver often returns one.  Step 3
rules that out for this solver's witness.  On a flow without a cycle the
other checks hold for every maximum flow.  Beta reads only the source, sink
and job-to-job amounts, and ``refine_flow`` keeps all three, so
``refinement_beta`` holds.  The peeled rows are the supplies, the columns
are at most the demands, and every path runs along positive-capacity arcs,
so ``beta_properties`` holds wherever ``flow_reachability`` does; where that
fails, which pairs it names depends on the witness.

The flow audit (``analysis.verify_flow_feasible``), the job-level flow
(``FlowResult.peel_input``) and the peel (``decompose_beta``) compute on
ints: each amount they read times the least common denominator D of them
all (``rational.over_common_denominator``).  Each builds ``Rat(k, D)`` only
for what it returns or prints, so no ``int`` leaves it, and every message
and report byte is the one the same work on ``Rat``s gives.  A
``FlowResult``'s flow is a read-only copy, so what is read off it once
stays its own.  The solver stays on ``Rat``: a long-horizon solve takes few
augmenting paths over thousands of arcs, so scaling its whole residual
index to ints at every solve costs more than the paths' arithmetic saves;
verifying lb2 (k 3) + DoS M = 400 took longer that way (CHANGES.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import compress, islice
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .borrow import closure
from .model import ScheduleTrace, TimePoint, add_work
from .rational import Rat, format_rat, over_common_denominator

Vertex = tuple
_ZERO = Rat(0)
SOURCE: Vertex = ("source",)
SINK: Vertex = ("sink",)

Arc = tuple[Vertex, Vertex]
Arcs = dict[Arc, Fraction]


@dataclass(frozen=True)
class ResidualIndex:
    """A residual graph at zero flow, as the solver reads it: vertex numbers,
    and per arc k in index order its head at 2k and its tail at 2k + 1 of
    ``heads``, its capacity at 2k and 0 at 2k + 1 of ``residual``, and per
    vertex the residual arcs leaving it, in index order.  Never edited:
    ``index_arcs`` extends a copy, and the solver pushes flow on a copy."""

    vertices: list[Vertex]
    number: dict[Vertex, int]
    heads: list[int]
    residual: list[Fraction]
    out: list[list[int]]


_EMPTY_INDEX = ResidualIndex([SOURCE, SINK], {SOURCE: 0, SINK: 1}, [], [], [[], []])


def index_arcs(index: ResidualIndex, arcs: Iterable[tuple[Arc, Fraction]]) -> ResidualIndex:
    """``index`` extended by ``arcs``, in their order."""
    vertices, number = list(index.vertices), dict(index.number)
    heads, residual, out = list(index.heads), list(index.residual), list(index.out)
    new: dict[int, list[int]] = {}  # per vertex, its residual arcs added here

    def vertex(v: Vertex) -> int:
        k = number.get(v)
        if k is None:
            k = number[v] = len(vertices)
            vertices.append(v)
            out.append([])
        return k

    for (u, v), cap in arcs:
        a, b = vertex(u), vertex(v)
        new.setdefault(a, []).append(len(heads))
        new.setdefault(b, []).append(len(heads) + 1)
        heads += (b, a)
        residual += (cap, _ZERO)
    for k, added in new.items():
        out[k] = out[k] + added
    return ResidualIndex(vertices, number, heads, residual, out)


@dataclass(frozen=True)
class FlowNetwork:
    time_points: tuple[Fraction, ...]
    arcs: Mapping[Arc, Fraction]  # read-only
    supplies: dict[int, Fraction]
    demands: dict[int, Fraction]
    # job-to-job steps (j, i): a positive-capacity arc from job j into a
    # dummy of job i whose own out-arc has positive capacity
    steps: frozenset[tuple[int, int]]
    # the residual graph ``max_flow_saturates`` solves; None on a refined
    # network, which is never solved
    index: Optional[ResidualIndex] = field(repr=False)

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

    def solved_arcs(self) -> Arcs:
        """The network the max flow solves: the arcs of positive capacity,
        less every arc from a demand job to anything but the sink."""
        return {
            (u, v): cap
            for (u, v), cap in self.arcs.items()
            if cap > 0 and not (u[0] == "job" and u[1] in self.demands and v != SINK)
        }


@dataclass(frozen=True)
class _Grid:
    """A network at one time less its supplies and demands: the closed
    intervals' arcs (the sweep's own map, kept while t stays) and the open
    interval's; on the base grid, the closed intervals' residual index and
    the open interval's index arcs."""

    time_points: tuple[Fraction, ...]
    steps: frozenset[tuple[int, int]]
    closed_arcs: Arcs
    open_arcs: Arcs
    index: Optional[ResidualIndex]
    open_layer: list[tuple[Arc, Fraction]]


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
    only the open interval.  Each closed interval enters the solver's
    residual index then too, as one hub (``index_arcs``).  The work each
    job received on an interval and on its halves is read from the
    segments inside it.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        jobs = trace.instance.jobs
        self.infinite = sum((job.proc for job in jobs), Rat(1))
        self._grid = sorted({_ZERO, *(job.release for job in jobs), *trace.completions.values()})
        self._closed = 0  # grid intervals built so far
        # the jobs alive at each grid point in turn, and at grid[_closed]:
        # the holders of every interval that starts there
        self._alive = trace.alive_sets(self._grid)
        self._holders = [("job", j) for j in sorted(next(self._alive))]
        self._arcs: Arcs = {}
        self._index = _EMPTY_INDEX
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
            more, layer = self._interval(l, a, b, self._arcs, self._refined_arcs)
            self._steps |= more
            self._index = index_arcs(self._index, layer)
            self._refined_points += [(a + b) / 2, b]
            self._closed += 1
            self._holders = [("job", j) for j in sorted(next(self._alive))]
        points, refined_points = grid[: self._closed + 1], self._refined_points
        arcs, refined_arcs, steps, layer = {}, {}, self._steps, []
        last = points[-1]
        if t > last:
            more, layer = self._interval(self._closed, last, t, arcs, refined_arcs)
            steps = steps | more
            points = points + [t]
            refined_points = refined_points + [(last + t) / 2, t]
        self._now = (
            _Grid(tuple(points), steps, self._arcs, arcs, self._index, layer),
            _Grid(tuple(refined_points), steps, self._refined_arcs, refined_arcs, None, []),
        )
        return self._now

    def _interval(
        self, l: int, a: Fraction, b: Fraction, arcs: Arcs, refined_arcs: Arcs
    ) -> tuple[frozenset[tuple[int, int]], list[tuple[Arc, Fraction]]]:
        """Add the arcs of interval l = [a, b] and of its two halves to the
        base and the refined arc maps.  Return the interval's steps and its
        base arcs as the residual index holds them, in index order: each
        dummy's arc to its job, then, if some holder feeds a dummy other than
        its own, ("hub", l) into every dummy and every such holder into the
        hub, at the holder capacity."""
        trace, infinite = self.trace, self.infinite
        mid = (a + b) / 2
        # no job is released or completes inside (a, b): the holders are
        # the jobs alive at a, and every job rated there is released by a.
        # Per job, the work received on [a, mid] and on [mid, b]
        first: dict[int, Fraction] = {}
        second: dict[int, Fraction] = {}
        for seg in trace.segments_meeting(a, b):
            for half, lo, hi in ((first, a, mid), (second, mid, b)):
                lo, hi = max(seg.start, lo), min(seg.end, hi)
                if lo < hi:
                    add_work(half, seg, hi - lo)
        whole = dict(first)
        for i, w in second.items():
            whole[i] = whole[i] + w if i in whole else w
        holders = self._holders
        worked = sorted(whole)
        for into, k, received_on in (
            (arcs, l, whole), (refined_arcs, 2 * l, first), (refined_arcs, 2 * l + 1, second)
        ):
            dummies = []
            for i in worked:
                received = received_on.get(i)
                if received:
                    dummy = ("dummy", i, k)
                    into[(dummy, ("job", i))] = received
                    dummies.append(dummy)
            for holder in holders:
                for dummy in dummies:
                    if dummy[1] != holder[1]:
                        into[(holder, dummy)] = infinite
        # in the base interval every worked job has a dummy, and every holder
        # an arc into each dummy but its own
        dummies = [("dummy", i, l) for i in worked]
        layer = [((d, ("job", d[1])), arcs[(d, ("job", d[1]))]) for d in dummies]
        feeders = [h for h in holders if any(d[1] != h[1] for d in dummies)]
        if feeders:
            hub = ("hub", l)
            layer += [((hub, d), infinite) for d in dummies] + [((h, hub), infinite) for h in feeders]
        steps = frozenset((holder[1], i) for holder in holders for i in worked if i != holder[1])
        return steps, layer


def build_flow_network(sweep: NetworkSweep, point: TimePoint, refined: bool = False) -> FlowNetwork:
    """Interval network of the sweep's trace at the point's time t, on the
    base grid or, refined, with every interval split at its midpoint.  A
    base network carries its residual index: the sweep's, extended by the
    open interval and the sink and source arcs."""
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
    # the sink and the source arcs, in index order
    terminal = [((("job", i), SINK), d) for i, d in demands.items()]
    terminal += [((SOURCE, ("job", j)), s) for j, s in supplies.items()]
    return FlowNetwork(
        time_points=grid.time_points,
        arcs=MappingProxyType({**grid.closed_arcs, **grid.open_arcs, **dict(terminal)}),
        supplies=supplies,
        demands=demands,
        steps=grid.steps,
        index=None if grid.index is None else index_arcs(grid.index, grid.open_layer + terminal),
    )


@dataclass(frozen=True)
class FlowResult:
    value: Fraction
    # read-only: a copy of the flow given, so what is read off it once
    # (``peel_input``) stays the flow's
    flow: Mapping[Arc, Fraction]
    # below supply only: the vertices reachable from the source in the
    # flow's residual graph, the source side of a minimum cut
    # (``check_min_cut``)
    cut: Optional[frozenset[Vertex]] = None

    def __post_init__(self):
        object.__setattr__(self, "flow", MappingProxyType(dict(self.flow)))

    @cached_property
    def peel_input(
        self,
    ) -> tuple[Mapping[int, Fraction], Mapping[int, Fraction], Mapping[tuple[int, int], Fraction]]:
        """All that ``decompose_beta`` reads of the flow, read-only and read
        once: per job the amount on its source arc (excess) and on its sink
        arc (absorption), and the job-level flow (``job_totals``).  Two flows
        with equal peel inputs peel to the same beta."""
        excess: dict[int, Fraction] = {}
        absorb: dict[int, Fraction] = {}
        keys, amounts = [], []
        for (u, v), f in self.flow.items():
            if u == SOURCE:
                excess[v[1]] = f
            elif v == SINK:
                absorb[u[1]] = f
            elif u[0] == "job" and v[0] == "dummy":
                keys.append((u[1], v[1]))
                amounts.append(f)
        d, scaled = over_common_denominator(amounts)
        totals: dict[tuple[int, int], int] = {}
        for key, k in zip(keys, scaled):
            totals[key] = totals.get(key, 0) + k
        job_flow = {key: Rat(k, d) for key, k in totals.items()}
        return MappingProxyType(excess), MappingProxyType(absorb), MappingProxyType(job_flow)

    def job_totals(self) -> Mapping[tuple[int, int], Fraction]:
        """The job-level flow: from each job j into the dummies of each job
        i, summed over the intervals, keyed (j, i).  Beta is peeled from it
        and ``refinement_direct_flow`` compares it."""
        return self.peel_input[2]


def max_flow_saturates(net: FlowNetwork) -> tuple[bool, FlowResult]:
    """Exact max flow on ``net.solved_arcs()``, by breadth-first
    augmentation on ``net.index``, its witness mapped back to the
    network's arcs without a cycle (the module docstring's three steps).

    The arcs out of each vertex are tried in index order, so the augmenting
    paths, and with them the witness flow, depend on the network alone.
    The residual capacities are kept in one array: arc k of that order at
    2k, its reverse at 2k + 1, so the flow on arc k is the residual of
    2k + 1.  Every arc out of a demand job but to the sink is closed, as
    ``solved_arcs`` leaves it out, so the witness has no outgoing flow at
    any demand vertex; a path may still pass a demand vertex backwards,
    cancelling flow that entered it.  A network with no supply has the zero
    flow.

    Below supply, the result carries the source side of the mapped flow's
    residual graph on ``net.solved_arcs()``, whose cut capacity
    ``check_min_cut`` compares with the value.
    """
    if not net.supplies:
        return True, FlowResult(value=Rat(0), flow={})
    index = net.index
    number, out, heads, residual = index.number, index.out, index.heads, list(index.residual)
    source, sink = number[SOURCE], number[SINK]
    is_open = [True, False] * (len(heads) // 2)  # residual[e] > 0, kept in step
    for vertex in (("job", i) for i in net.demands if ("job", i) in number):
        for e in out[number[vertex]]:
            if not e & 1 and heads[e] != sink:  # a forward arc, not to the sink
                is_open[e] = False

    value = Rat(0)
    while True:
        parent = [-1] * len(out)
        parent[source] = len(heads)
        queue = deque([source])
        while queue and parent[sink] < 0:
            for e in out[queue.popleft()]:
                if is_open[e] and parent[v := heads[e]] < 0:
                    parent[v] = e
                    queue.append(v)
        if parent[sink] < 0:
            break
        path = []
        w = sink
        while w != source:
            e = parent[w]
            path.append(e)
            w = heads[e ^ 1]
        push = min(map(residual.__getitem__, path))
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
            is_open[e] = residual[e] > 0
            is_open[e ^ 1] = True
        value += push

    vertices = index.vertices
    flow = network_flow({
        (vertices[heads[e]], vertices[heads[e - 1]]): residual[e]
        for e in compress(range(1, len(heads), 2), islice(is_open, 1, None, 2))
    })
    if value == net.total_supply:
        return True, FlowResult(value=value, flow=flow)
    return False, FlowResult(value=value, flow=flow, cut=_source_side(net, flow))


def network_flow(index_flow: Arcs) -> Arcs:
    """A flow on a residual index's arcs as a flow on the network's own
    arcs, by the module docstring's three steps: each hub's flow split over
    job -> dummy arcs and every cycle cancelled; the arcs sorted."""
    flow: Arcs = {}
    into: dict[Vertex, dict[Vertex, Fraction]] = {}  # per hub, the flow from each holder
    onto: dict[Vertex, dict[Vertex, Fraction]] = {}  # per hub, the flow to each dummy
    for (u, v), f in index_flow.items():
        if v[0] == "hub":
            into.setdefault(v, {})[u] = f
        elif u[0] == "hub":
            onto.setdefault(u, {})[v] = f
        else:
            flow[(u, v)] = f
    for hub, dummies in onto.items():
        holders = into[hub]
        for dummy, f in dummies.items():
            own = ("job", dummy[1])
            if own in holders:
                # step 1: cancel the cycle own -> hub -> dummy -> own
                gamma = min(f, holders[own])
                holders[own] -= gamma
                dummies[dummy] -= gamma
                _add(flow, (dummy, own), -gamma)
        # step 2: the holders' inflows split over the dummies' outflows
        targets = [[dummy, f] for dummy, f in sorted(dummies.items()) if f > 0]
        k = 0
        for holder, f in sorted(holders.items()):
            while f > 0:
                take = min(f, targets[k][1])
                flow[(holder, targets[k][0])] = take
                f -= take
                targets[k][1] -= take
                if not targets[k][1]:
                    k += 1
    # step 3: cancel every cycle left
    while (cycle := _cycle(flow)) is not None:
        arcs = list(zip(cycle, cycle[1:]))
        gamma = min(flow[arc] for arc in arcs)
        for arc in arcs:
            _add(flow, arc, -gamma)
    return dict(sorted(flow.items()))


def _add(flow: Arcs, arc: Arc, amount: Fraction) -> None:
    """Add ``amount`` to the flow on ``arc``, dropping the arc at zero."""
    total = flow.get(arc, _ZERO) + amount
    if total:
        flow[arc] = total
    else:
        del flow[arc]


def _cycle(flow: Arcs) -> Optional[list[Vertex]]:
    """A closed walk u, ..., u along arcs carrying flow, visiting no vertex
    twice but u, found depth-first in the flow's order; None if the flow
    has no cycle."""
    onward: dict[Vertex, list[Vertex]] = {}
    for u, v in flow:
        onward.setdefault(u, []).append(v)
    on_path: dict[Vertex, bool] = {}  # True while on the walk, False once done
    for root in onward:
        if root in on_path:
            continue
        walk, branches = [root], [iter(onward[root])]
        on_path[root] = True
        while walk:
            for v in branches[-1]:
                state = on_path.get(v)
                if state:
                    return walk[walk.index(v):] + [v]
                if state is None:
                    on_path[v] = True
                    walk.append(v)
                    branches.append(iter(onward.get(v, ())))
                    break
            else:
                on_path[walk.pop()] = False
                branches.pop()
    return None


def _source_side(net: FlowNetwork, flow: Arcs) -> frozenset[Vertex]:
    """The vertices reachable from the source in the residual graph of
    ``flow`` on ``net.solved_arcs()``."""
    onward: dict[Vertex, list[Vertex]] = {}
    for (u, v), cap in net.solved_arcs().items():
        f = flow.get((u, v), _ZERO)
        if f < cap:
            onward.setdefault(u, []).append(v)
        if f > 0:
            onward.setdefault(v, []).append(u)
    return closure(onward, SOURCE)


@dataclass
class BetaMatrix:
    values: dict[tuple[int, int], Fraction]
    discarded_cycle_flow: Fraction = Rat(0)


def decompose_beta(result: FlowResult) -> BetaMatrix:
    """Peel source-to-sink path flows off the job-level flow, least job
    sequence first; beta sums peeled amounts by path endpoints.  Excess comes
    from the source arcs, absorption from the sink arcs, and the job-to-job
    amounts from the job-level flow, all three read off
    ``result.peel_input``.  Cycle flow carries no supply: it is cancelled,
    and any flow left once no walk reaches a sink is counted with it, once
    per job-to-job amount (logged in the result).

    The peel runs on ints: every amount it reads times their least common
    denominator D (``over_common_denominator``).  Only the beta values and
    the discarded cycle flow are built back, as ``Rat(k, D)``, so no ``int``
    leaves this function."""
    excess_of, absorb_of, totals = result.peel_input
    d, scaled = over_common_denominator([*excess_of.values(), *absorb_of.values(), *totals.values()])
    excess = dict(zip(excess_of, scaled))
    absorb = dict(zip(absorb_of, scaled[len(excess):]))
    fl: dict[int, dict[int, int]] = {}
    for (j, i), k in zip(totals, scaled[len(excess) + len(absorb):]):
        fl.setdefault(j, {})[i] = k

    beta: dict[tuple[int, int], int] = {}
    discarded = 0
    for j in sorted(excess):
        while excess[j] > 0:
            path, on_path = [j], {j: 0}
            reached: Optional[int] = None
            while True:
                u = path[-1]
                if absorb.get(u, 0) > 0 and len(path) > 1:
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
            beta[(j, reached)] = beta.get((j, reached), 0) + gamma
    discarded += sum(f for outs in fl.values() for f in outs.values() if f > 0)
    return BetaMatrix(
        values={key: Rat(k, d) for key, k in beta.items()}, discarded_cycle_flow=Rat(discarded, d)
    )


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
