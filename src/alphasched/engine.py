"""Deterministic event-driven fluid simulator.

The machine runs at unit speed; a policy decision fixes constant rates until
the next event.  Events are the exact rational instants at which anything the
policy could react to changes: arrivals, signal emissions, completions,
progress-level merges of the evenly-shared set, threshold crossings of the
fused rule, and scripted adversary commitments.  Simultaneous happenings are
applied in a fixed order (completions, emissions, commitments, arrivals,
merges, then re-decision), which makes runs reproducible event for event.

Information hiding is enforced when the policy view is built: a view for a
non-omniscient policy carries no remaining time for a job that has not yet
emitted its signal, and a job with an uncommitted processing time never
counts as emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import ExecutionSegment, Instance, ScheduleTrace
from .policies import PolicyKind, PolicyView, RateDecision, ViewJob, decide


class EngineError(Exception):
    """Simulation cannot proceed (stall, runaway loop, unresolved job)."""


class CommitmentError(EngineError):
    """An adversary commitment contradicts the observed schedule."""


EVENT_ORDER = ("completion", "emission", "adversary-commit", "arrival", "merge", "mode-switch")

EVENT_CAP_FACTOR = 64


@dataclass(frozen=True)
class Event:
    time: Fraction
    kind: str
    jobs: tuple[int, ...]


class EventLog:
    def __init__(self, events: Optional[list[Event]] = None):
        self.events: list[Event] = events or []

    def append(self, time: Fraction, kind: str, jobs) -> None:
        self.events.append(Event(time, kind, tuple(sorted(jobs))))

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return isinstance(other, EventLog) and self.events == other.events

    def csv_rows(self) -> list[str]:
        from .rational import format_rat

        rows = ["time,kind,job_ids"]
        for ev in self.events:
            rows.append(f"{format_rat(ev.time)},{ev.kind},{';'.join(map(str, ev.jobs))}")
        return rows


class SimState:
    """Mutable simulation state; drives one deterministic run.

    A policy is a ``PolicyKind`` or any object with ``decide(view)``; both
    may carry ``omniscient`` (default False) and ``merge_pool`` ("all", the
    default, or "unsignalled": which alive jobs can join an evenly-shared
    set).  They are read once, here.
    """

    def __init__(self, instance: Instance, policy, horizon: Optional[Fraction] = None):
        self.instance = instance
        self.policy = policy
        self.builtin = isinstance(policy, PolicyKind)
        # built-in decisions go through policies.decide, looked up per call
        self.decide = (lambda view: decide(policy, view)) if self.builtin else policy.decide
        self.omniscient = bool(getattr(policy, "omniscient", False))
        self.merge_pool = getattr(policy, "merge_pool", "all")
        self.horizon = None if horizon is None else Fraction(horizon)
        self.alpha = instance.alpha
        self.now = Fraction(0)
        self.progress: dict[int, Fraction] = {j.id: Fraction(0) for j in instance.jobs}
        self.proc: dict[int, Optional[Fraction]] = {
            j.id: (j.proc if j.committed else None) for j in instance.jobs
        }
        self._alive: set[int] = set()
        self.signal: dict[int, Fraction] = {}  # emission time of each emitted job
        self._arrivals = sorted(instance.jobs, key=lambda j: (j.release, j.id))
        self._arr_ptr = 0
        self._triggers = list(instance.adversary.triggers) if instance.adversary else []
        self._trg_ptr = 0
        self.decision: RateDecision = RateDecision((), "idle")
        self._last_branch: Optional[str] = None
        self.log = EventLog()
        self._segments: list[ExecutionSegment] = []
        self._event_count = 0
        self._event_cap = EVENT_CAP_FACTOR * max(1, len(instance.jobs)) ** 2

    # -- state queries -------------------------------------------------------

    def alive(self) -> list[int]:
        return sorted(self._alive)

    def build_view(self) -> PolicyView:
        entries = []
        for j in self.alive():
            p = self.proc[j]
            emitted = j in self.signal
            remaining = None
            if self.omniscient:
                if p is None:
                    raise EngineError(
                        f"job {j}: omniscient policy requires a committed processing time"
                    )
                remaining = p - self.progress[j]
            elif emitted:
                remaining = p - self.progress[j]
            entries.append(
                ViewJob(
                    job_id=j,
                    release=self.instance.job(j).release,
                    elapsed=self.progress[j],
                    emitted=emitted,
                    remaining=remaining,
                    signal_time=self.signal.get(j),
                )
            )
        return PolicyView(now=self.now, alpha=self.alpha, omniscient=self.omniscient, jobs=tuple(entries))

    # -- event machinery -------------------------------------------------------

    def apply_instant_events(self, expected_kinds: Sequence[str] = ()) -> None:
        """Apply all state changes due exactly at the current time, in the
        fixed order, repeating until stable (a commitment can release a signal
        in the same instant)."""
        merge_entry = None
        if "merge" in expected_kinds:
            rates = dict(self.decision.rates)
            if rates:
                level = min(self.progress[j] for j in rates)
                joiners = [
                    j
                    for j in self.alive()
                    if j not in rates and self.progress[j] == level
                ]
                if joiners:
                    merge_entry = joiners
        changed = True
        while changed:
            changed = False
            done = [
                j
                for j in self.alive()
                if self.proc[j] is not None and self.progress[j] == self.proc[j]
            ]
            if done:
                for j in done:
                    self._alive.discard(j)
                self.log.append(self.now, "completion", done)
                changed = True
            emits = [
                j
                for j in self.alive()
                if self.proc[j] is not None
                and j not in self.signal
                and self.progress[j] >= self.alpha * self.proc[j]
            ]
            if emits:
                for j in emits:
                    if self.progress[j] != self.alpha * self.proc[j]:
                        raise EngineError(
                            f"job {j} passed its signal point unobserved: progress "
                            f"{self.progress[j]} > alpha * p = {self.alpha * self.proc[j]}"
                        )
                    self.signal[j] = self.now
                self.log.append(self.now, "emission", emits)
                changed = True
            while self._trg_ptr < len(self._triggers) and self._triggers[self._trg_ptr].fire_at == self.now:
                trigger = self._triggers[self._trg_ptr]
                self._trg_ptr += 1
                self._apply_trigger(trigger)
                changed = True
            arrived = []
            while self._arr_ptr < len(self._arrivals) and self._arrivals[self._arr_ptr].release == self.now:
                job = self._arrivals[self._arr_ptr]
                self._arr_ptr += 1
                self._alive.add(job.id)
                arrived.append(job.id)
            if arrived:
                self.log.append(self.now, "arrival", arrived)
                changed = True
        if merge_entry is not None:
            self.log.append(self.now, "merge", merge_entry)

    def _apply_trigger(self, trigger) -> None:
        for j in trigger.rule.jobs:
            if self.proc[j] is not None:
                raise CommitmentError(f"trigger {trigger.id!r} re-commits job {j}")
        observed = {j: self.progress[j] for j in trigger.rule.jobs}
        commits = trigger.rule.commit(observed)
        for j, p in sorted(commits.items()):
            if p <= 0:
                raise CommitmentError(f"trigger {trigger.id!r} commits nonpositive time for job {j}")
            if self.progress[j] > self.alpha * p:
                raise CommitmentError(
                    f"inconsistent commitment: job {j} already has progress "
                    f"{self.progress[j]} > alpha * {p}"
                )
            self.proc[j] = p
        self.log.append(self.now, "adversary-commit", sorted(commits))

    def make_decision(self) -> RateDecision:
        decision = self.decide(self.build_view())
        alive = set(self.alive())
        total = Fraction(0)
        for j, r in decision.rates:
            if j not in alive:
                raise EngineError(f"policy rated job {j} which is not alive")
            if r <= 0:
                raise EngineError(f"policy rated job {j} at nonpositive rate")
            total += r
        if total > 1:
            raise EngineError("policy rates exceed unit speed")
        if self.builtin and alive and not decision.rates:
            raise EngineError("built-in policy idled with alive jobs")
        branch = decision.branch
        if branch in ("srpt", "setf") and self._last_branch in ("srpt", "setf") and branch != self._last_branch:
            self.log.append(self.now, "mode-switch", decision.rated_ids)
        if branch in ("srpt", "setf"):
            self._last_branch = branch
        self.decision = decision
        return decision

    def next_event(self) -> Optional[tuple[Fraction, tuple[str, ...]]]:
        """Exact earliest future event and every kind tied at that instant."""
        cand: dict[str, Fraction] = {}

        def offer(kind: str, time: Fraction) -> None:
            if kind not in cand or time < cand[kind]:
                cand[kind] = time

        if self._arr_ptr < len(self._arrivals):
            offer("arrival", self._arrivals[self._arr_ptr].release)
        if self._trg_ptr < len(self._triggers):
            offer("adversary-commit", self._triggers[self._trg_ptr].fire_at)
        rates = dict(self.decision.rates)
        for j, r in rates.items():
            p = self.proc[j]
            if p is None:
                continue
            offer("completion", self.now + (p - self.progress[j]) / r)
            if j not in self.signal:
                target = self.alpha * p
                if self.progress[j] < target:
                    offer("emission", self.now + (target - self.progress[j]) / r)
        if self.decision.branch == "setf" and rates:
            levels = {self.progress[j] for j in rates}
            shares = {r for r in rates.values()}
            if len(levels) == 1 and len(shares) == 1:
                level = next(iter(levels))
                rho = next(iter(shares))
                pool = [
                    j
                    for j in self.alive()
                    if j not in rates and (self.merge_pool == "all" or j not in self.signal)
                ]
                above = [self.progress[j] for j in pool if self.progress[j] > level]
                if above:
                    offer("merge", self.now + (min(above) - level) / rho)
                if self.policy is PolicyKind.ALPHA and 0 < self.alpha < 1:
                    rem = [
                        self.proc[j] - self.progress[j]
                        for j in self.alive()
                        if j in self.signal
                    ]
                    if rem:
                        cross = self.now + (
                            self.alpha / (1 - self.alpha) * min(rem) - level
                        ) / rho
                        if cross <= self.now:
                            raise EngineError(
                                f"fused-rule threshold already crossed at {cross} "
                                f"while sharing at {self.now}"
                            )
                        offer("mode-switch", cross)
        if not cand:
            return None
        best = min(cand.values())
        kinds = tuple(k for k in EVENT_ORDER if cand.get(k) == best)
        return best, kinds

    # -- main loop ----------------------------------------------------------------

    def _advance(self, until: Fraction) -> None:
        if until == self.now:
            return
        if self.decision.rates:
            self._segments.append(ExecutionSegment(self.now, until, self.decision.rates))
            for j, r in self.decision.rates:
                self.progress[j] += r * (until - self.now)
        self.now = until

    def run(self) -> tuple[ScheduleTrace, EventLog]:
        self.apply_instant_events()
        while True:
            if self.horizon is not None and self.now >= self.horizon:
                break
            self.make_decision()
            nxt = self.next_event()
            if nxt is None:
                if self.alive():
                    unresolved = [j for j in self.alive() if self.proc[j] is None]
                    if unresolved:
                        raise EngineError(
                            f"unresolved deferred processing time for jobs {unresolved}"
                        )
                    raise EngineError("simulation stalled with alive jobs")
                break
            t2, kinds = nxt
            if self.horizon is not None and t2 > self.horizon:
                self._advance(self.horizon)
                break
            self._advance(t2)
            self._event_count += 1
            if self._event_count > self._event_cap:
                raise EngineError(
                    f"runaway event loop: more than {self._event_cap} events"
                )
            self.apply_instant_events(kinds)
        if self.horizon is not None:
            unresolved = [j for j in self.progress if self.proc[j] is None]
            if unresolved:
                raise EngineError(
                    f"unresolved deferred processing time for jobs {unresolved} at horizon"
                )
        realized = self.instance
        pending = {
            j.id: self.proc[j.id]
            for j in self.instance.jobs
            if not j.committed
        }
        if pending:
            realized = self.instance.with_committed(pending)
        trace = ScheduleTrace(realized, self._segments, horizon=self.horizon)
        return trace, self.log


def simulate(
    instance: Instance, policy, horizon: Optional[Fraction] = None
) -> tuple[ScheduleTrace, EventLog]:
    """Run a policy over an instance and return the trace and event log."""
    return SimState(instance, policy, horizon=horizon).run()


def replay_check(trace: ScheduleTrace, instance: Instance, policy) -> bool:
    """Re-simulate and compare against the canonical form of a given trace."""
    fresh, _ = simulate(instance, policy, horizon=trace.horizon)
    return fresh.canonical_bytes() == trace.canonical_bytes()


def first_divergence(a: ScheduleTrace, b: ScheduleTrace) -> Optional[str]:
    """Human-readable description of the first segment-level mismatch."""
    for idx, (sa, sb) in enumerate(zip(a.segments, b.segments)):
        if sa != sb:
            return f"segment {idx}: {sa} != {sb}"
    if len(a.segments) != len(b.segments):
        return f"segment count {len(a.segments)} != {len(b.segments)}"
    if a.completions != b.completions:
        return "completion times differ"
    if a.emissions != b.emissions:
        return "signal times differ"
    return None
