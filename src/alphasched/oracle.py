"""Independent reference schedulers used to cross-check the fluid engine.

Deliberately separate from the engine and the policy module: the quantum
simulator re-states the scheduling rules as a stepped loop that hands out
work in chunks of at most one quantum, and the brute-force optimum explores
every preemptive unit-step schedule of an integer instance.  Neither shares
code with the paths they validate.  The stepped loop counts time and work as
Python ints in units of 1/D, where D is the lcm of the denominators of the
quantum, the releases and the processing times, so it is exact: nothing is
rounded and no float enters.
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


@dataclass
class OracleRun:
    completions: dict[int, Fraction]
    total_flow: Fraction


def quantum_simulate(
    instance: Instance, kind: PolicyKind, quantum: Fraction = Fraction(1, 64)
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
    """
    if not instance.resolved:
        raise ModelError("quantum oracle requires a resolved instance")
    quantum = Fraction(quantum)
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
    signal: dict[int, int] = {}  # scaled time at which an alive job was first seen emitted
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
        if rule == "setf":
            pick = min(alive, key=progress.__getitem__)
        elif rule == "srpt":
            pick = min(alive, key=left.__getitem__)
        else:
            signalled = [j for j in alive if j in signal]
            fresh = [j for j in alive if j not in signal]
            if signalled and (
                not fresh
                or min(map(left.__getitem__, signalled)) * a
                <= (b - a) * min(map(progress.__getitem__, fresh))
            ):
                pick = min(signalled, key=lambda j: (left[j], -signal[j]))
            else:
                pick = min(fresh, key=progress.__getitem__)
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
        elif pick not in signal and progress[pick] * b >= a * proc[pick]:
            signal[pick] = now

    total = sum(completions[j] for j in proc) - sum(r for r, _ in arrivals)
    return OracleRun(
        completions={j: Fraction(c, scale) for j, c in completions.items()},
        total_flow=Fraction(total, scale),
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
