"""Independent reference schedulers used to cross-check the fluid engine.

Deliberately separate from the engine and the policy module: the quantum
simulator re-states the scheduling rules as a stepped loop that hands out
work in chunks of at most one quantum, and the brute-force optimum explores
every preemptive unit-step schedule of an integer instance.  Neither shares
code with the paths they validate.  The stepped loop counts time and work as
Python ints in units of 1/D, where D is the lcm of the denominators of the
quantum, the releases and the processing times, so it is exact: nothing is
rounded and no float enters.  Most of its steps repeat the decision before
them, so it applies whole rounds of full quanta at once while no arrival,
completion, signal, progress tie or fused-rule threshold can change that
decision; the rounds are the steps the loop would take one by one, and the
completions and total flow are those of the step-by-step loop.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .model import Instance, ModelError
from .policies import PolicyKind
from .rational import Rat


@dataclass
class OracleRun:
    completions: dict[int, Fraction]
    total_flow: Fraction


def quantum_simulate(
    instance: Instance, kind: PolicyKind, quantum: Fraction = Rat(1, 64)
) -> OracleRun:
    """Stepped scheduler: at each step one job receives min(quantum, remaining,
    time to next arrival) units of work.

    Even sharing is realized as round-robin over the least-progressed set (the
    lowest id goes first and thereby rotates), so elapsed work stays within one
    quantum of the fluid trajectory.

    Time and work are ints in units of 1/D (see the module docstring).  For
    alpha = a/b, job j has emitted once progress_j * b >= a * p_j, and the
    fused rule runs a signalled job when lhs * a <= (b - a) * min_progress,
    with lhs the least remaining work of a signalled job and min_progress the
    least progress of an unsignalled one: (1 - alpha) / alpha * min_progress
    cleared of fractions.

    Each decision names its members: SRPT's pick or the fused rule's
    signalled pick alone, or else the least-progressed jobs of the round-robin
    pool (all alive jobs under SETF, the unsignalled ones in the fused rule's
    sharing branch).  A round gives every member one full quantum, lowest id
    first, and the loop applies in one go the largest k of rounds in which
    the stepped loop would make exactly those steps: no job arrives before
    the k-th round ends, no member completes or emits, each round starts
    with the members strictly below the pool's next progress level, and in
    the sharing branch the threshold is still false at the start of each
    round (min_progress is the members' progress then, and lhs does not
    move).  A lone pick stays the pick, since only its remaining work falls,
    and that also keeps the threshold true for a signalled pick.  No step of
    those rounds completes a job or records a signal, so only the final
    progress matters.  When k is 0 the loop takes one step as above.  Signal
    times are recorded only under the fused rule, the one rule that reads
    them.
    """
    if not isinstance(kind, PolicyKind):
        raise ModelError(f"quantum oracle needs a PolicyKind, got {kind!r}")
    if not instance.resolved:
        raise ModelError("quantum oracle requires a resolved instance")
    quantum = Rat(quantum)
    if quantum <= 0:
        raise ModelError("quantum must be positive")
    scale = lcm(
        quantum.denominator,
        *(j.release.denominator for j in instance.jobs),
        *(j.proc.denominator for j in instance.jobs),
    )
    step_cap = int(quantum * scale)
    a, b = instance.alpha.numerator, instance.alpha.denominator
    proc = {j.id: int(j.proc * scale) for j in instance.jobs}
    progress = dict.fromkeys(proc, 0)
    left = dict(proc)  # proc - progress
    # scaled time at which an alive job was first seen emitted; only the fused
    # rule reads it, so only the fused rule records it
    signal: dict[int, int] = {}
    completions: dict[int, int] = {}
    arrivals = sorted((int(j.release * scale), j.id) for j in instance.jobs)
    if kind is PolicyKind.SETF or (kind is PolicyKind.ALPHA and a == b):
        rule = "setf"
    elif kind is PolicyKind.SRPT or (kind is PolicyKind.ALPHA and a == 0):
        rule = "srpt"
    else:
        rule = "fused"
    # alive stays sorted by id, so min() keeps the first of equal keys: the
    # lowest id, as in every tie-break below
    alive: list[int] = []
    arrived = 0  # arrivals[:arrived] have release <= now
    now = 0

    while alive or arrived < len(arrivals):
        while arrived < len(arrivals) and arrivals[arrived][0] <= now:
            insort(alive, arrivals[arrived][1])
            arrived += 1
        if not alive:
            now = arrivals[arrived][0]
            continue
        pool = None  # the jobs whose least-progressed ones share round-robin
        if rule == "setf":
            pool = alive
        elif rule == "srpt":
            members = [min(alive, key=left.__getitem__)]
        else:
            signalled = [j for j in alive if j in signal]
            pool = [j for j in alive if j not in signal]
            if signalled:
                lhs = min(map(left.__getitem__, signalled))
                if not pool or lhs * a <= (b - a) * min(map(progress.__getitem__, pool)):
                    members = [min(signalled, key=lambda j: (left[j], -signal[j]))]
                    pool = None
        if pool is not None:
            level = min(map(progress.__getitem__, pool))
            members = [j for j in pool if progress[j] == level]

        # rounds of one quantum per member that the stepped loop would take
        # as they are (see the docstring): no member completes,
        rounds = (min(map(left.__getitem__, members)) - 1) // step_cap
        if arrived < len(arrivals):  # no job arrives before the last round ends,
            rounds = min(rounds, (arrivals[arrived][0] - now) // (step_cap * len(members)))
        if pool is not None:
            if len(members) < len(pool):  # each round starts below the pool's next level,
                above = min(progress[j] for j in pool if progress[j] > level)
                rounds = min(rounds, (above - level - 1) // step_cap + 1)
            if rule == "fused":  # no member emits,
                least_proc = min(map(proc.__getitem__, members))
                rounds = min(rounds, (a * least_proc - b * level - 1) // (b * step_cap))
                if signalled:  # and each round starts with the threshold false
                    lhs_room = a * lhs - (b - a) * level - 1
                    rounds = min(rounds, lhs_room // ((b - a) * step_cap) + 1)
        if rounds:
            work = rounds * step_cap
            for j in members:
                progress[j] += work
                left[j] -= work
            now += work * len(members)
            continue

        pick = members[0]
        step = left[pick]
        if step > step_cap:
            step = step_cap
        if arrived < len(arrivals) and arrivals[arrived][0] - now < step:
            step = arrivals[arrived][0] - now
        progress[pick] += step
        left[pick] -= step
        now += step
        if not left[pick]:
            completions[pick] = now
            alive.remove(pick)
        elif rule == "fused" and pick not in signal and progress[pick] * b >= a * proc[pick]:
            signal[pick] = now

    total = sum(completions[j] for j in proc) - sum(r for r, _ in arrivals)
    return OracleRun(
        completions={j: Rat(c, scale) for j, c in completions.items()},
        total_flow=Rat(total, scale),
    )


def brute_force_min_total_flow(instance: Instance) -> int:
    """Exhaustive preemptive optimum for integer instances.

    Explores every non-idling unit-step schedule by dynamic programming over
    time layers; a state is (time, multiset of remaining work of released
    unfinished jobs) and the cost of a step is the number of alive jobs
    during it.  Layers are expanded in time order, so each state's least
    accrued flow is final before it is expanded.  Exact for integer releases
    and processing times, where unit-grid preemption loses nothing.
    """
    if not instance.resolved:
        raise ModelError("brute force requires a resolved instance")
    for job in instance.jobs:
        if job.release.denominator != 1 or job.proc.denominator != 1:
            raise ModelError("brute force requires integer releases and processing times")
    releases: dict[int, list[int]] = {}
    for job in instance.jobs:
        releases.setdefault(int(job.release), []).append(int(job.proc))
    if not releases:
        return 0
    release_times = sorted(releases)
    layers: dict[int, dict[tuple[int, ...], int]] = {}
    pending: list[int] = []  # heap of the times of unexpanded layers

    def reach(t: int, rems: list[int], cost: int) -> None:
        layer = layers.get(t)
        if layer is None:
            layer = layers[t] = {}
            heapq.heappush(pending, t)
        key = tuple(sorted(rems))
        if key not in layer or cost < layer[key]:
            layer[key] = cost

    best: Optional[int] = None
    reach(release_times[0], releases[release_times[0]], 0)
    while pending:
        t = heapq.heappop(pending)
        incoming = releases.get(t + 1, [])
        for rems, cost in layers.pop(t).items():
            if not rems:
                idx = bisect_right(release_times, t)
                if idx == len(release_times):
                    best = cost if best is None else min(best, cost)
                else:
                    nxt = release_times[idx]
                    reach(nxt, releases[nxt], cost)
                continue
            for idx, value in enumerate(rems):
                if idx and rems[idx - 1] == value:
                    continue
                nxt = list(rems[:idx] + rems[idx + 1 :])
                if value > 1:
                    nxt.append(value - 1)
                reach(t + 1, nxt + incoming, cost + len(rems))
    return best
