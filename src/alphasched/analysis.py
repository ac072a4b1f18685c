"""Structural verification of schedule pairs (algorithm vs. optimum).

Given the algorithm's trace and an SRPT trace on its realized instance (the
pair ``simulate_pair`` gives), this module machine-checks, with exact
rational arithmetic:

* the borrow graph (``borrow``) and its reachability closure properties,
* the interval flow network (``flow``), whose maximum flow must use the
  entire surplus of the algorithm's unfinished-and-not-optimal jobs (a flow
  below it comes with a minimum cut of the same capacity),
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
checks.  The check times increase, and each time's state is carried
forward from the last one's, not rebuilt: the time point
(``TimePoint.sweep``), the borrow graph with its reachable sets
(``BorrowSweep``), the flow networks (``NetworkSweep``) and each
reachability set's lifetime (``ReachLifetimes``).  The catch-up check
reads the swept points as they pass (``CatchUp``), so no time's state is
kept once the next one is made.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterator, Mapping, Optional, Sequence

from .borrow import BorrowGraph, BorrowSweep
from .engine import simulate
from .flow import (
    SINK,
    SOURCE,
    BetaMatrix,
    FlowNetwork,
    FlowResult,
    NetworkSweep,
    Vertex,
    build_flow_network,
    decompose_beta,
    max_flow_saturates,
    refine_flow,
)
from .model import Instance, ModelError, ScheduleTrace, TimePoint, instance_to_json, merge_intervals
from .policies import PolicyKind
from .rational import Rat, format_rat, over_common_denominator

_ZERO = Rat(0)


def build_borrow_graph(trace: ScheduleTrace, t: Fraction) -> BorrowGraph:
    """The trace's borrow graph at time t, as ``BorrowSweep`` reads it off
    ``borrow.borrow_thresholds``."""
    return BorrowSweep(trace).at(t)


# --------------------------------------------------------------------------
# flow-network checks
# --------------------------------------------------------------------------


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
    the value, and the cut's capacity over ``net.solved_arcs()`` equals it
    (Ford and Fulkerson).  ``max_flow_saturates`` solves a residual index
    with one hub per interval, but it maps its flow back to the network's
    own arcs and takes the cut from that flow's residual graph on
    ``net.solved_arcs()``, so this certifies the paper's network, not the
    index."""
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
    """Capacity and conservation audit of a witness flow.  The signs,
    capacities, balances and demand outflows are compared as ints: each
    amount of the flow and the capacity of its arc, times their least
    common denominator D.  A message prints an amount or a capacity as
    given, and a balance or an outflow k as ``Rat(k, D)``."""
    flow = result.flow
    caps = [net.arcs.get(arc) for arc in flow]
    d, scaled = over_common_denominator([*flow.values(), *(0 if cap is None else cap for cap in caps)])
    violations = []
    balance: dict[Vertex, int] = {}
    outflow = {("job", i): 0 for i in net.demands}  # other than to the sink
    for ((u, v), f), k, cap, c in zip(flow.items(), scaled, caps, scaled[len(flow):]):
        if k < 0:
            violations.append(f"negative flow on {u}->{v}")
        if cap is None:
            violations.append(f"flow on missing arc {u}->{v}")
        elif k > c:
            violations.append(
                f"capacity violated on {u}->{v}: {format_rat(f)} > {format_rat(cap)}"
            )
        balance[u] = balance.get(u, 0) - k
        balance[v] = balance.get(v, 0) + k
        if u in outflow and v != SINK:
            outflow[u] += k
    for v, b in balance.items():
        if v in (SOURCE, SINK):
            continue
        if b != 0:
            violations.append(f"conservation violated at {v}: net {format_rat(Rat(b, d))}")
    for i in net.demands:
        out = outflow[("job", i)]
        if out != 0:
            violations.append(f"demand job {i} has outgoing flow {format_rat(Rat(out, d))}")
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
# borrowing-matrix checks
# --------------------------------------------------------------------------


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
    times = [t for t in trace.event_times() if t < trace.makespan]
    for point in TimePoint.sweep(trace, trace, times):
        t, alive, work = point.t, point.part.alive, point.work
        seg = trace.segment_at(t)
        if seg is None:
            continue  # idle gap; feasibility check owns non-idling
        if not alive:
            violations.append(f"segment at {format_rat(t)} rates dead jobs")
            continue
        signalled = {j for j in alive if j in trace.emissions and trace.emissions[j] <= t}
        fresh = alive - signalled
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
    # a job alive inside a segment is alive at its start or released inside
    # it; those are tried, in instance order
    jobs = trace.instance.jobs
    releases = [job.release for job in jobs]
    position = {job.id: p for p, job in enumerate(jobs)}
    starts = [seg.start for seg in trace.segments]
    for seg, alive in zip(trace.segments, trace.alive_sets(starts)):
        arriving = range(bisect_right(releases, seg.start), bisect_left(releases, seg.end))
        candidates = [jobs[p] for p in sorted({position[j] for j in alive}.union(arriving))]
        for k, _ in seg.rates:
            s_k = trace.emissions.get(k)
            if s_k is None:
                continue
            clair_lo = max(seg.start, s_k)
            if clair_lo >= seg.end:
                continue  # k not yet signalled anywhere on this stretch
            ck = trace.completions[k]
            for job in candidates:
                j = job.id
                if j == k:
                    continue
                # j completes at the end of a segment after seg.start, so at
                # seg.end or later: it is alive on [t0, seg.end), t0 < seg.end
                cj = trace.completions[j]
                t0 = max(clair_lo, job.release)
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
    catch_up = CatchUp(trace)
    for point in TimePoint.sweep(trace, trace, times):
        catch_up.step(point)
    return catch_up.violations


class CatchUp:
    """``check_catch_up`` fed one time point at a time, in increasing order,
    so that the verifier runs it on the points it sweeps anyway."""

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self.violations: list[str] = []
        # (i, j): y_j must stay >= y_i while both stay unsignalled.  Every
        # pair recorded, in whose order the violations are listed, and the
        # live ones: a job that leaves the unsignalled set never returns
        self._dominated: set[tuple[int, int]] = set()
        self._live: set[tuple[int, int]] = set()

    def step(self, point: TimePoint) -> None:
        t, work, fresh = point.t, point.work, point.part.nonclairvoyant
        self._live = {(i, j) for i, j in self._live if i in fresh and j in fresh}
        if any(work[j] < work[i] for i, j in self._live):
            for i, j in self._dominated:
                if i in fresh and j in fresh and work[j] < work[i]:
                    self.violations.append(
                        f"catch-up violated at {format_rat(t)}: y_{j}={format_rat(work[j])} "
                        f"< y_{i}={format_rat(work[i])} after {i} ran"
                    )
        seg = self.trace.segment_at(t)
        if seg is None or seg.start == t:
            return  # record processing only strictly inside a segment
        for i, _ in seg.rates:
            if i in fresh:
                pairs = [(i, j) for j in fresh if j != i]
                self._dominated.update(pairs)
                self._live.update(pairs)


def check_direct_borrow_order(graph: BorrowGraph, point: TimePoint) -> list[str]:
    """An unsignalled borrow edge (j -> i) between two currently unsignalled
    jobs implies j has at least i's progress."""
    t, work = point.t, point.work
    fresh = point.part.nonclairvoyant
    found = [
        (j, i) for j in fresh for i in graph.unsignalled_heads(j) if i in fresh and work[j] < work[i]
    ]
    return [
        f"borrow edge ({j},{i},N) at t={format_rat(t)} with "
        f"y_{j}={format_rat(work[j])} < y_{i}={format_rat(work[i])}"
        for j, i in sorted(found)
    ]


class _Lifetime:
    """A reachability set's lifetime at one time, and the jobs outside the
    set that ran inside it (None unless the lifetime is one interval).

    Each member's span [r_i, min(C_i, t)] only grows to the right, and the
    spans still growing all end at t, in the last interval.  So a later t
    moves only the last interval's end, to min(t, the members' last
    completion), and the jobs that ran inside a one-interval lifetime gain
    only those of the segments past its old end (``extend``).  A superset's
    lifetime merges the added members' spans into it, and its jobs run
    inside gain only those of the segments it adds at either end
    (``grown``).  Every member is released by the first time."""

    __slots__ = ("intervals", "last_done", "outsiders")

    def __init__(self, intervals: list, last_done: Optional[Fraction], outsiders: Optional[set[int]]):
        self.intervals = intervals
        self.last_done = last_done  # None while some member never completes
        self.outsiders = outsiders

    @classmethod
    def of(cls, trace: ScheduleTrace, reach: frozenset[int], t: Fraction) -> "_Lifetime":
        intervals = trace.lifetime(reach, t)
        outsiders = trace.ran_within(*intervals[0]) - reach if len(intervals) == 1 else None
        return cls(intervals, _last_done(trace, reach), outsiders)

    def grown(
        self, trace: ScheduleTrace, old: frozenset[int], reach: frozenset[int], t: Fraction
    ) -> "_Lifetime":
        """The lifetime of ``reach`` at t, given this one, of its subset
        ``old``, at t."""
        added = reach - old
        intervals = merge_intervals(self.intervals + trace.lifetime(added, t))
        done = _last_done(trace, added)
        last_done = None if done is None or self.last_done is None else max(done, self.last_done)
        outsiders = None
        if len(intervals) == 1:
            lo, hi = intervals[0]
            if self.outsiders is None:
                outsiders = trace.ran_within(lo, hi) - reach
            else:
                (a, e), = self.intervals
                ran = trace.ran_within(lo, a) | trace.ran_within(e, hi)
                outsiders = (self.outsiders - added) | (ran - reach)
        return _Lifetime(intervals, last_done, outsiders)

    def extend(self, trace: ScheduleTrace, reach: frozenset[int], t: Fraction) -> None:
        lo, hi = self.intervals[-1]
        end = t if self.last_done is None else min(t, self.last_done)
        if end != hi:
            self.intervals[-1] = (lo, end)
            if self.outsiders is not None:
                self.outsiders |= trace.ran_within(hi, end) - reach

    @property
    def clean(self) -> bool:
        return len(self.intervals) == 1 and not self.outsiders


def _last_done(trace: ScheduleTrace, jobs: frozenset[int]) -> Optional[Fraction]:
    """The last completion among the jobs, None if one never completes."""
    done = [trace.completions.get(i) for i in jobs]
    return max(done) if all(c is not None for c in done) else None


class ReachLifetimes:
    """``check_reachability_closure``'s state, carried across increasing
    check times: the ``_Lifetime`` of every reachability set of the latest
    time.  A new set is grown from its vertex's set at the last time when
    that is a subset, as ``BorrowSweep``'s sets are, and computed from
    scratch otherwise.  A clean set whose members have all completed by t
    is settled: nothing at a later time changes it, and it is not looked at
    again while it stays."""

    def __init__(self):
        self.lives: dict[frozenset[int], _Lifetime] = {}
        self._reach: Mapping[int, frozenset[int]] = {}
        self._settled: set[frozenset[int]] = set()

    def update(self, trace: ScheduleTrace, reach: Mapping[int, frozenset[int]], t: Fraction) -> set:
        """Bring the lifetime of every set of ``reach`` (vertex to its
        reachable set) to t; return the sets not settled."""
        lives = self.lives
        for v, new in reach.items() - self._reach.items():
            if new in lives:
                continue
            old = self._reach.get(v)
            life = lives.get(old)
            if life is not None and old <= new:
                life.extend(trace, old, t)
                lives[new] = life.grown(trace, old, new, t)
            else:
                lives[new] = _Lifetime.of(trace, new, t)
        present = set(reach.values())
        for gone in lives.keys() - present:
            del lives[gone]
        self._settled &= present
        unsettled = present - self._settled
        for s in unsettled:
            life = lives[s]
            life.extend(trace, s, t)
            if life.clean and life.last_done is not None and life.last_done <= t:
                self._settled.add(s)
        self._reach = reach
        return unsettled


def check_reachability_closure(
    trace: ScheduleTrace, graph: BorrowGraph, point: TimePoint,
    carried: Optional[ReachLifetimes] = None,
) -> list[str]:
    """The lifetime of a reachability set is one interval; every job executed
    inside it belongs to the set; for alive jobs the interval ends at t.

    ``carried`` is the state a caller keeps from one check time to the next,
    in increasing order; without it each set's lifetime is computed from
    scratch.  Each vertex is looked at only when some set fails."""
    t, alive = point.t, point.part.alive
    state = ReachLifetimes() if carried is None else carried
    reach = graph.reach_map()
    unsettled = state.update(trace, reach, t)
    lives = state.lives
    if all(lives[s].clean for s in unsettled) and all(
        lives[reach[j]].intervals[0][1] == t for j in alive if j in reach
    ):
        return []
    violations = []
    for j in graph.vertices:
        intervals, outsiders = lives[reach[j]].intervals, lives[reach[j]].outsiders or ()
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
        violations += [
            f"job {i} executed inside lifetime of reachability set of {j} "
            f"but is not reachable (t={format_rat(t)})"
            for i in graph.vertices
            if i in outsiders
        ]
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
    mids = [(seg.start + seg.end) / 2 for seg in busy]
    for seg, mid, alive in zip(busy, mids, trace.alive_sets(mids)):
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
    event: bool, entry: dict, lifetimes: Optional[ReachLifetimes] = None,
) -> Iterator[tuple[str, list[str]]]:
    """The per-time checks in run order: (report name, violations) each, with
    the report values written into ``entry``.  The flow checks run at event
    times, and those reading beta or the refined flow on a saturating flow.
    Beta reads only a flow's peel input (``FlowResult.peel_input``), so the
    refined flow is peeled only where its peel input differs from the base
    flow's; elsewhere its beta is the base flow's.  ``lifetimes`` is the
    reachability-closure check's carried state."""
    instance, t = alg_trace.instance, point.t
    yield "direct_borrow_order", check_direct_borrow_order(graph, point)
    yield "reachability_closure", check_reachability_closure(alg_trace, graph, point, lifetimes)
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
    refined_net = build_flow_network(networks, point, refined=True)
    refined_flow = refine_flow(net, flow, refined_net)
    yield "refined_flow_feasible", verify_flow_feasible(refined_net, refined_flow)
    yield "refinement_direct_flow", check_refinement_direct_flow(net, flow, refined_flow)
    same = refined_flow.peel_input == flow.peel_input
    yield "refinement_beta", check_refinement_beta(beta, beta if same else decompose_beta(refined_flow), t)


def verify_traces(alg_trace: ScheduleTrace, opt_trace: ScheduleTrace) -> VerificationReport:
    """Run ``checks_at`` at every check time in increasing order, then the
    trace checks; the first failure is the first of them to fail."""
    events, dense = check_times(alg_trace, opt_trace)
    borrow, networks, event_set = BorrowSweep(alg_trace), NetworkSweep(alg_trace), set(events)
    lifetimes = ReachLifetimes()
    catch_up = CatchUp(alg_trace)
    time_checks, failures = [], []
    for point in TimePoint.sweep(alg_trace, opt_trace, dense):
        t = point.t
        entry: dict = {"t": format_rat(t)}
        catch_up.step(point)
        checks = checks_at(
            alg_trace, point, borrow.at(t), networks, t in event_set, entry, lifetimes
        )
        failed = [(check, violations) for check, violations in checks if violations]
        if failed:
            entry["violations"] = [line for _, violations in failed for line in violations]
            failures.append({"t": entry["t"], "check": failed[0][0], "violations": entry["violations"]})
        time_checks.append(entry)
    trace_checks = {
        "feasibility_alg": check_feasibility(alg_trace),
        "feasibility_opt": check_feasibility(opt_trace),
        "catch_up": catch_up.violations,
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
