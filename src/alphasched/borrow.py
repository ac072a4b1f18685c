"""The borrow graph of the algorithm's trace, swept over the check times.

Its vertices at time t are the jobs released by t.  Edge (j, i, tag) means
job i received work of positive measure inside j's lifetime
[r_j, min(C_j, t)], before (tag N) or after (tag C) its signal s_i.

The edge-threshold rule: edge (j, i, N) looks at i's work inside the window
[r_j, min(C_j, s_i)), edge (j, i, C) inside [max(r_j, s_i), C_j), and j's
lifetime up to t cuts either window at t.  So the edge is present exactly
when t passes tau, the start of the first overlap of i's busy intervals
with the window, and it stays present at every later time.  Vertices only
join too, at their release.  ``borrow_thresholds`` lists every edge with its
tau once per trace, and ``BorrowSweep`` reads the graph at non-decreasing
times off that list, carrying each vertex's reachable set forward: a new
edge changes only the sets of the vertices that reach its tail.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .model import ScheduleTrace, UnknownJobError
from .rational import Rat, format_rat


def closure(succ: Mapping[int, Iterable[int]], j: int) -> frozenset[int]:
    """j and every vertex reachable from it along ``succ``."""
    seen = {j}
    stack = [j]
    while stack:
        for v in succ.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


class BorrowGraph:
    """The borrow graph at one time: its vertices, its edges (j, i, tag),
    each vertex's reachable set and the heads of its N edges.  Built from
    vertices and edges alone, it finds these on demand and keeps them;
    ``BorrowSweep`` passes them in, and its edges in threshold order."""

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, str]],  # (j, i, "N"|"C"): i ran inside j's lifetime
        reach: Optional[dict[int, frozenset[int]]] = None,
        n_heads: Optional[dict[int, tuple[int, ...]]] = None,
    ):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._reach = {} if reach is None else reach
        self._succ: Optional[dict[int, set[int]]] = None
        self._n_heads = n_heads

    def unsignalled_heads(self, j: int) -> tuple[int, ...]:
        """The jobs i of the edges (j, i, N), in edge order."""
        if self._n_heads is None:
            heads: dict[int, list[int]] = {}
            for a, b, tag in self.edges:
                if tag == "N":
                    heads.setdefault(a, []).append(b)
            self._n_heads = {a: tuple(bs) for a, bs in heads.items()}
        return self._n_heads.get(j, ())

    def reachable(self, j: int) -> frozenset[int]:
        """Vertices reachable from j, j included."""
        reach = self._reach.get(j)
        if reach is None:
            if j not in self.vertices:
                raise UnknownJobError(f"job {j} not in borrow graph")
            if self._succ is None:
                self._succ = {}
                for a, b, _ in self.edges:
                    self._succ.setdefault(a, set()).add(b)
            reach = self._reach[j] = closure(self._succ, j)
        return reach

    def reach_map(self) -> Mapping[int, frozenset[int]]:
        """Every vertex's reachable set, by vertex, read-only."""
        if len(self._reach) < len(self.vertices):
            for j in self.vertices:
                self.reachable(j)
        return MappingProxyType(self._reach)


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
    edge belongs to the graph at time t exactly when t > tau.  Both of an
    edge's windows lie inside j's lifetime [r_j, C_j], so only the jobs
    that ran inside it are tried as i."""
    out = []
    for job_j in trace.instance.jobs:
        j, r_j = job_j.id, job_j.release
        c_j = trace.completions.get(j)
        for i in trace.ran_within(r_j, trace.makespan if c_j is None else c_j) - {j}:
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

    A vertex joins at its release, with no edge: an edge needs work inside
    both jobs' lifetimes, which starts after both releases.  Edges join once
    t passes their threshold (``borrow_thresholds``), into one successor
    map.  An edge j -> i changes the reachable sets of the vertices that
    reach j and of no other (Italiano, TCS 48, 1986), so only those are
    recomputed, each by a search that expands the other recomputed
    vertices and takes any other vertex's set whole.  A new graph object is
    made only when a vertex or an edge joined.
    """

    def __init__(self, trace: ScheduleTrace):
        self._releases = [(job.release, job.id) for job in trace.instance.jobs]
        self._thresholds = borrow_thresholds(trace)
        self._edges = [(j, i, tag) for _, j, i, tag in self._thresholds]
        self._t: Optional[Fraction] = None
        self._nv = 0
        self._ne = 0
        self._succ: dict[int, set[int]] = {}
        self._reach: dict[int, frozenset[int]] = {}
        self._n_heads: dict[int, tuple[int, ...]] = {}
        self._graph = BorrowGraph((), (), {}, {})

    def at(self, t: Fraction) -> BorrowGraph:
        t = Rat(t)
        if self._t is not None and t < self._t:
            raise ValueError(f"borrow sweep asked for t={format_rat(t)} after t={format_rat(self._t)}")
        self._t = t
        nv, ne = self._nv, self._ne
        while nv < len(self._releases) and self._releases[nv][0] <= t:
            j = self._releases[nv][1]
            self._reach[j] = frozenset((j,))
            nv += 1
        tails = set()
        while ne < len(self._edges) and self._thresholds[ne][0] < t:
            j, i, tag = self._edges[ne]
            if tag == "N":
                self._n_heads[j] = self._n_heads.get(j, ()) + (i,)
            onward = self._succ.setdefault(j, set())
            if i not in onward:
                onward.add(i)
                tails.add(j)
            ne += 1
        if tails:
            self._extend(tails)
        if (nv, ne) != (self._nv, self._ne):
            self._nv, self._ne = nv, ne
            self._graph = BorrowGraph(
                (j for _, j in self._releases[:nv]), self._edges[:ne], dict(self._reach),
                dict(self._n_heads),
            )
        return self._graph

    def _extend(self, tails: set[int]) -> None:
        """Recompute the reachable set of every vertex that reaches a tail
        of a new edge.  A vertex that reaches none keeps its set, and so
        does every vertex in it."""
        reach, succ = self._reach, self._succ
        stale = {v for v, r in reach.items() if not r.isdisjoint(tails)}
        grown = {}
        for v in stale:
            seen, stack = {v}, [v]
            while stack:
                for w in succ.get(stack.pop(), ()):
                    if w in seen:
                        continue
                    if w in stale:
                        seen.add(w)
                        stack.append(w)
                    else:
                        seen |= reach[w]
            if len(seen) != len(reach[v]):  # sets only grow
                grown[v] = frozenset(seen)
        reach.update(grown)
