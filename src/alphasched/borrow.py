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
times off that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
            reach = self._reach[j] = closure(self._succ, j)
        return reach


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
    edge belongs to the graph at time t exactly when t > tau."""
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
            raise ValueError(f"borrow sweep asked for t={format_rat(t)} after t={format_rat(self._t)}")
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
