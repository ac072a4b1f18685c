"""Independent reference schedulers used to cross-check the fluid engine.

Deliberately separate from the engine and the policy module: the quantum
simulator re-states the scheduling rules as a stepped loop that hands out
work in chunks of at most one quantum, and the brute-force optimum explores
every preemptive unit-step schedule of an integer instance.  Neither shares
code with the paths they validate.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
    """
    if not instance.resolved:
        raise ModelError("quantum oracle requires a resolved instance")
    quantum = Fraction(quantum)
    if quantum <= 0:
        raise ModelError("quantum must be positive")
    alpha = instance.alpha
    jobs = {j.id: j for j in instance.jobs}
    proc = {j.id: j.proc for j in instance.jobs}
    progress = {j.id: Fraction(0) for j in instance.jobs}
    signal: dict[int, Fraction] = {}
    completions: dict[int, Fraction] = {}
    arrivals = sorted(instance.jobs, key=lambda j: (j.release, j.id))
    now = Fraction(0)

    def emitted(j: int) -> bool:
        return progress[j] >= alpha * proc[j]

    while len(completions) < len(jobs):
        alive = [
            j
            for j in jobs
            if jobs[j].release <= now and j not in completions
        ]
        future = [j.release for j in arrivals if j.release > now]
        if not alive:
            now = min(future)
            continue
        for j in alive:
            if emitted(j) and j not in signal:
                signal[j] = now
        if kind is PolicyKind.SETF or (kind is PolicyKind.ALPHA and alpha == 1):
            pick = min(alive, key=lambda j: (progress[j], j))
        elif kind is PolicyKind.SRPT or (kind is PolicyKind.ALPHA and alpha == 0):
            pick = min(alive, key=lambda j: (proc[j] - progress[j], j))
        else:
            signalled = [j for j in alive if emitted(j)]
            fresh = [j for j in alive if not emitted(j)]
            run_signalled = False
            if signalled:
                if not fresh:
                    run_signalled = True
                else:
                    lhs = min(proc[j] - progress[j] for j in signalled)
                    rhs = (1 - alpha) / alpha * min(progress[j] for j in fresh)
                    run_signalled = lhs <= rhs
            if run_signalled:
                pick = min(
                    signalled,
                    key=lambda j: (proc[j] - progress[j], -signal.get(j, jobs[j].release), j),
                )
            else:
                pick = min(fresh, key=lambda j: (progress[j], j))
        step = min(quantum, proc[pick] - progress[pick])
        if future:
            step = min(step, min(future) - now)
        progress[pick] += step
        now += step
        if progress[pick] == proc[pick]:
            completions[pick] = now

    total = sum((completions[j.id] - j.release for j in instance.jobs), Fraction(0))
    return OracleRun(completions=completions, total_flow=total)


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
