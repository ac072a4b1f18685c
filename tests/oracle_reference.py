"""Test-only reference for `alphasched.oracle.quantum_simulate`.

The stepped loop below is the oracle as it was before it moved to integer
units and to batched rounds: the same rules, tie-breaks and step order, in
exact `Fraction`s, one step at a time.  The oracle applies whole rounds of
full quanta (one per member of its decision's set, lowest id first) only
where this loop would take those very steps: no arrival before a round
ends, no completion, signal, tie with the next progress level or change of
the fused rule's threshold inside them.  So `test_oracle.py` checks that the
oracle returns the same completions and total flow on every run it is
given.
"""

from __future__ import annotations

from fractions import Fraction

from alphasched.model import Instance, ModelError
from alphasched.oracle import OracleRun
from alphasched.policies import PolicyKind


def reference_quantum_simulate(
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
