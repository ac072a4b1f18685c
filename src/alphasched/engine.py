"""Deterministic event-driven fluid simulator.

The machine runs at unit speed; a policy decision fixes constant rates until
the next stop.  The log records events at exact rational instants: arrivals,
signal emissions, completions, progress-level merges of the evenly-shared
set, threshold crossings of the fused rule, and scripted adversary
commitments.  A run stops, and the policy decides again, where anything it
could react to changes: at every event, except that SRPT and SETF do not
stop at emissions, since neither reads a signal (SRPT sees every p, SETF
reads only progress).  Their emissions between stops are logged in passing,
at their exact times.  Simultaneous happenings are applied in a fixed order
(completions, emissions, commitments, arrivals, merges, then re-decision),
which makes runs reproducible event for event.

The three rules are one decision (``policies.decide``) over views that mark
each job signalled as the run's rule reads it: every job under SRPT's order
(SRPT, and the fused rule at alpha = 0), at one signal time so that ties go
to the lowest id; no job under SETF; otherwise each job that has emitted.
An unsignalled job's entry carries no remaining time, and an uncommitted job
never counts as emitted, and is an error under SRPT's order.

Per-stop cost.  Only a job rated in the segment just run, or one that
arrived or was committed at this instant, can have new progress or a new
processing time, so only such a job can complete or emit; the state calls
these jobs changed.  Each changed job is tested for completion and emission
once per instant, against alpha * p computed once when p is committed; a job
that arrives, or that a commitment gives its p, is tested after the
commitments and arrivals.  Each alive job keeps one immutable view entry,
rebuilt only when the job changed.  The alive jobs that the decision does
not rate sit in rankings of what the rule reads, as the entries mark them:
unsignalled jobs by progress; signalled jobs by progress, and by remaining
work in the fused rule's order, except under SRPT's order, which ranks them
by remaining work alone.  A ranking holds one entry per distinct key with
that key's jobs in id order, so an evenly-shared set is one progress level.
From their fronts the next-event search reads the merge level and the
threshold, and a view its minima in one pass over its candidates: the k
rated jobs, whose ids come in id order, with the at most two fronts
inserted.  A job is re-ranked when it changes while unrated and when it
enters or leaves the rated set, in O(log d) comparisons of a ranking's d
distinct keys plus list shifts.  With c changed jobs, e jobs entering or
leaving the rated set and n alive jobs, a stop costs O((c + e) log n) exact
operations and a decision O(k + log n) under every rule; a view lists
every alive job only if it is read.  No exact value is built twice: a rate
shared by k jobs is one object, which the unit-speed checks total once as
r * k, one product per distinct rate advances and one quotient per distinct
rate gives each next-event wait, and the fused rule's two threshold factors
are computed once per run.  Consecutive stops under equal rates extend one open
segment, so one ``ExecutionSegment`` is built per maximal constant-rate run,
and it keeps the decision's rates, already canonical, without a re-sort.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .model import ExecutionSegment, Instance, ModelError, ScheduleTrace
from .policies import PolicyKind, PolicyView, RateDecision, ViewJob, decide
from .rational import Rat


class EngineError(Exception):
    """The input leaves the simulation unable to proceed (a runaway loop,
    an unresolved or uncommitted job).  A broken engine lemma raises
    ``RuntimeError`` instead: it is a bug, not bad input."""


class CommitmentError(EngineError):
    """An adversary commitment contradicts the observed schedule."""


EVENT_ORDER = ("completion", "emission", "adversary-commit", "arrival", "merge", "mode-switch")

EVENT_CAP_FACTOR = 64

SRPT_SIGNAL = Rat(0)  # every job's signal time under SRPT's order


class Event(NamedTuple):
    time: Fraction
    kind: str
    jobs: tuple[int, ...]


class EventLog(list):
    """The events of one run, in the order they happened."""

    def csv_rows(self) -> list[str]:
        from .rational import format_rat

        rows = ["time,kind,job_ids"]
        for ev in self:
            rows.append(f"{format_rat(ev.time)},{ev.kind},{';'.join(map(str, ev.jobs))}")
        return rows


class _Ranking:
    """Jobs ordered by an exact key, lowest id first among equal keys.  It
    holds one entry per distinct key, with that key's jobs in id order, so
    with d distinct keys a job's key is replaced in O(log d) comparisons
    plus list shifts, and jobs at one progress level form one entry."""

    __slots__ = ("keys", "groups", "key_of")

    def __init__(self):
        self.keys: list = []  # distinct keys, ascending
        self.groups: list[list[int]] = []  # the jobs at each key, ascending
        self.key_of: dict = {}

    def put(self, job: int, key) -> None:
        """Give the job a new key; None takes it out."""
        old = self.key_of.get(job)
        if old is key or (old is not None and key is not None and old == key):
            return
        keys, groups = self.keys, self.groups
        if old is not None:
            k = bisect_left(keys, old)
            if len(groups[k]) == 1:
                del keys[k], groups[k]
            else:
                groups[k].remove(job)
            del self.key_of[job]
        if key is not None:
            k = bisect_left(keys, key)
            if k < len(keys) and keys[k] == key:
                insort(groups[k], job)
            else:
                keys.insert(k, key)
                groups.insert(k, [job])
            self.key_of[job] = key

    def least(self):
        return self.keys[0] if self.keys else None

    def first(self) -> Optional[int]:
        """The lowest id at the least key."""
        return self.groups[0][0] if self.groups else None

    def least_above(self, level: Fraction) -> Optional[Fraction]:
        k = bisect_right(self.keys, level)
        return self.keys[k] if k < len(self.keys) else None

    def at(self, level: Fraction) -> list[int]:
        k = bisect_left(self.keys, level)
        return list(self.groups[k]) if k < len(self.keys) and self.keys[k] == level else []


class SimState:
    """Mutable simulation state; drives one deterministic run of one of the
    three rules, a ``PolicyKind``.  A rule that reads no signal does not
    stop at emissions.

    ``progress``, ``proc`` and ``signal`` are the state itself.  The view
    entries and the rankings are derived from them; they trail them for the
    jobs in ``_changed`` until the next view or next-event search refreshes
    them.  The rankings hold exactly the alive jobs that the current
    decision does not rate, so a decision that keeps its rated set leaves
    them untouched.  A rule keeps no view, so its view reads the live state.
    """

    def __init__(self, instance: Instance, policy: PolicyKind, horizon: Optional[Fraction] = None):
        if not isinstance(policy, PolicyKind):
            raise ModelError(f"simulation needs a PolicyKind, got {policy!r}")
        self.instance = instance
        self.policy = policy
        # stopping at emissions can be switched on alone; the marking follows the rule
        self.stops_at_emissions = policy.reads_signals
        self.horizon = None if horizon is None else Rat(horizon)
        if self.horizon is not None and self.horizon < 0:
            raise ModelError(f"horizon {self.horizon} is negative")
        self.alpha = instance.alpha
        # the fused rule's (1 - alpha) / alpha, which its view reads, and
        # alpha / (1 - alpha): it leaves sharing once the least signalled
        # remaining time is at most the former times the shared level
        self.threshold_factor = self._crossing_factor = None
        if policy is PolicyKind.ALPHA and 0 < self.alpha < 1:
            self.threshold_factor = (1 - self.alpha) / self.alpha
            self._crossing_factor = self.alpha / (1 - self.alpha)
        self.now = Rat(0)
        self.progress: dict[int, Fraction] = {j.id: Rat(0) for j in instance.jobs}
        self.proc: dict[int, Optional[Fraction]] = {
            j.id: (j.proc if j.committed else None) for j in instance.jobs
        }
        self._signal_work = {j.id: self.alpha * j.proc for j in instance.jobs if j.committed}
        self.signal: dict[int, Fraction] = {}  # emission time of each emitted job
        self._alive: list[int] = []  # sorted ids
        self._changed: set[int] = set()  # alive jobs whose entry and rankings trail
        # one view entry per alive job; an arrival gets its entry when the
        # changed jobs are next refreshed
        self._entries: dict[int, ViewJob] = {}
        # the entries mark every job signalled under SRPT's order, as the
        # fused rule is at alpha = 0, no job under SETF, else the emitted ones
        self._srpt_order = policy is PolicyKind.SRPT or (policy is PolicyKind.ALPHA and self.alpha == 0)
        self._marks = {} if policy is PolicyKind.SETF else self.signal
        # alive jobs the decision does not rate, as their entries mark them:
        # by progress, and signalled ones by remaining work in the rule's order
        self._unsignalled = _Ranking()
        self._signalled = _Ranking()
        self._remaining = _Ranking()
        self._arr_ptr = 0  # next arrival in instance.jobs, sorted by (release, id)
        self._triggers = list(instance.adversary.triggers) if instance.adversary else []
        self._trg_ptr = 0
        self.decision: RateDecision = RateDecision((), "idle")
        self._rated: set[int] = set()  # the decision's rated jobs
        self._last_branch: Optional[str] = None
        self.log = EventLog()
        self._segments: list[ExecutionSegment] = []
        self._run: Optional[list] = None  # open segment: [start, end, rates]
        self._event_count = 0
        self._event_cap = EVENT_CAP_FACTOR * max(1, len(instance.jobs)) ** 2

    # -- view entries and rankings ---------------------------------------------

    def _rank(self, j: int, entry: ViewJob) -> None:
        """Rank a job by its view entry, which must be current.  A mark is
        never taken back, so a job ranked as unsignalled has never been in
        _signalled or _remaining.  Under SRPT's order, which never shares,
        _signalled would be read by no merge."""
        if not entry.emitted:
            self._unsignalled.put(j, entry.elapsed)
        elif self._srpt_order:
            self._remaining.put(j, entry.remaining)
        else:
            self._unsignalled.put(j, None)
            self._signalled.put(j, entry.elapsed)
            self._remaining.put(j, (entry.remaining, -entry.signal_time))

    def _unrank(self, j: int) -> None:
        for ranking in (self._unsignalled, self._signalled, self._remaining):
            if j in ranking.key_of:
                ranking.put(j, None)

    def _refresh(self) -> None:
        """Rebuild the view entry of every changed job, and rank the changed
        jobs the decision does not rate."""
        if not self._changed:
            return
        rated, marks = self._rated, self._marks
        for j in sorted(self._changed):
            p, y = self.proc[j], self.progress[j]
            if self._srpt_order:
                if p is None:
                    raise EngineError(f"job {j}: SRPT's order needs a committed processing time")
                signal = SRPT_SIGNAL
            else:
                signal = marks.get(j)
            entry = self._entries[j] = (
                ViewJob(j, y, False, None, None) if signal is None else ViewJob(j, y, True, p - y, signal))
            if j not in rated:
                self._rank(j, entry)
        self._changed.clear()

    def build_view(self) -> PolicyView:
        self._refresh()
        return PolicyView(self.now, self.alpha, source=self)

    def view_jobs(self) -> tuple[ViewJob, ...]:
        entries = self._entries
        return tuple([entries[j] for j in self._alive])

    def view_candidates(self) -> tuple[ViewJob, ...]:
        """The rated alive jobs and the first job of each ranking, in id
        order.  Every other alive job is ranked behind these.  The rated
        ids come in id order, and the fronts are unrated and distinct: the
        two rankings share no job, since _unsignalled holds unsignalled
        jobs and _remaining signalled ones."""
        entries = self._entries
        ids = [j for j in self.decision.rated_ids if j in entries]
        for j in (self._unsignalled.first(), self._remaining.first()):
            if j is not None:
                insort(ids, j)
        return tuple([entries[j] for j in ids])

    def view_unsignalled_at(self, level: Fraction) -> list[int]:
        """The unrated unsignalled jobs at this progress."""
        return self._unsignalled.at(level)

    # -- event machinery -------------------------------------------------------

    def _log(self, kind: str, jobs) -> None:
        """Log an event now; the jobs come in id order."""
        self.log.append(Event(self.now, kind, tuple(jobs)))

    def apply_instant_events(self, expected_kinds: Sequence[str] = ()) -> None:
        """Apply all state changes due exactly at the current time, in the
        fixed order.  Only changed jobs can complete or emit, and each is
        tested once: a job that arrives, or is given its processing time by
        a commitment, is tested again after the commitments and arrivals."""
        merge_entry = None
        if "merge" in expected_kinds:
            rates = self.decision.rates
            if rates:
                level = min(self.progress[j] for j, _ in rates)
                # only rated jobs moved since the rankings were refreshed
                joiners = self._unsignalled.at(level) + self._signalled.at(level)
                if joiners:
                    merge_entry = sorted(joiners)
        self._complete_and_emit(self._changed)
        retest = []
        while self._trg_ptr < len(self._triggers) and self._triggers[self._trg_ptr].fire_at == self.now:
            trigger = self._triggers[self._trg_ptr]
            self._trg_ptr += 1
            retest += self._apply_trigger(trigger)
        arrived = []
        jobs = self.instance.jobs
        while self._arr_ptr < len(jobs) and jobs[self._arr_ptr].release == self.now:
            job = jobs[self._arr_ptr]
            self._arr_ptr += 1
            insort(self._alive, job.id)
            self._changed.add(job.id)
            arrived.append(job.id)
        if arrived:
            self._log("arrival", arrived)
        if retest or arrived:
            self._complete_and_emit(retest + arrived)
        if merge_entry is not None:
            self._log("merge", merge_entry)

    def _complete_and_emit(self, jobs) -> None:
        """Complete, then signal, each of these alive jobs that is due now."""
        done, emits = [], []
        for j in sorted(jobs):
            p = self.proc[j]
            if p is None:
                continue
            y = self.progress[j]
            if y == p:
                done.append(j)
            elif j not in self.signal and y >= self._signal_work[j]:
                emits.append(j)
        if done:
            for j in done:
                del self._alive[bisect_left(self._alive, j)]
                self._changed.discard(j)
                del self._entries[j]
                self._unrank(j)
            self._log("completion", done)
        if emits:
            for j in emits:
                if self.progress[j] != self._signal_work[j]:
                    raise RuntimeError(
                        f"job {j} passed its signal point unobserved: progress "
                        f"{self.progress[j]} > alpha * p = {self._signal_work[j]}"
                    )
                self.signal[j] = self.now
            self._log("emission", emits)

    def _apply_trigger(self, trigger) -> list[int]:
        """Commit the trigger's jobs; return the alive ones."""
        for j in trigger.rule.jobs:
            if self.proc[j] is not None:
                raise CommitmentError(f"trigger {trigger.id!r} re-commits job {j}")
        observed = {j: self.progress[j] for j in trigger.rule.jobs}
        commits = trigger.rule.commit(observed)
        alive = []
        for j, p in sorted(commits.items()):
            if p <= 0:
                raise CommitmentError(f"trigger {trigger.id!r} commits nonpositive time for job {j}")
            work = self.alpha * p
            if self.progress[j] > work:
                raise CommitmentError(
                    f"inconsistent commitment: job {j} already has progress "
                    f"{self.progress[j]} > alpha * {p}"
                )
            self.proc[j] = p
            self._signal_work[j] = work
            if j in self._entries:
                self._changed.add(j)
                alive.append(j)
        self._log("adversary-commit", sorted(commits))
        return alive

    def make_decision(self) -> RateDecision:
        # the module global, looked up per call so that a tracer can wrap it;
        # the guards below are lemma checks, so a failure is a bug
        decision = decide(self.build_view())
        entries = self._entries
        # a rate object shared by a run of jobs is tested once, totalled as r * count
        total, last, count = 0, None, 0
        for j, r in decision.rates:
            if j not in entries:
                raise RuntimeError(f"policy rated job {j} which is not alive")
            if r is not last:
                if r <= 0:
                    raise RuntimeError(f"policy rated job {j} at nonpositive rate")
                if count:
                    total += last * count
                last, count = r, 0
            count += 1
        if count and total + last * count > 1:
            raise RuntimeError("policy rates exceed unit speed")
        # segments are built when a constant-rate run closes, so the one
        # segment check a valid decision can still fail is made here
        old, new = self._rated, set(decision.rated_ids)
        if len(new) != len(decision.rates):
            raise RuntimeError("duplicate job in segment rates")
        if self._alive and not decision.rates:
            raise RuntimeError("built-in policy idled with alive jobs")
        branch = decision.branch
        if branch in ("srpt", "setf") and self._last_branch in ("srpt", "setf") and branch != self._last_branch:
            self._log("mode-switch", sorted(new))
        if branch in ("srpt", "setf"):
            self._last_branch = branch
        for j in old - new:
            if j in entries:
                self._rank(j, entries[j])
        for j in new - old:
            self._unrank(j)
        self.decision, self._rated = decision, new
        return decision

    def next_event(self) -> Optional[tuple[Fraction, tuple[str, ...]]]:
        """Exact earliest future event and every kind tied at that instant.

        Candidates are compared as waits from now; adding now to the least
        wait gives the same exact time as taking the least sum.  Every wait
        is positive: the arrivals and commitments due now were applied, a
        rated job is alive, so short of its p, an emission is sought only
        below its signal point, a merge level lies strictly above the shared
        one, and a threshold wait at most 0 raises here."""
        self._refresh()
        now = self.now
        waits: dict[str, Fraction] = {}  # least wait of each kind
        if self._arr_ptr < len(self.instance.jobs):
            waits["arrival"] = self.instance.jobs[self._arr_ptr].release - now
        if self._trg_ptr < len(self._triggers):
            waits["adversary-commit"] = self._triggers[self._trg_ptr].fire_at - now
        rates = self.decision.rates
        # the jobs sharing one rate object wait least where the work left is
        # least: one quotient per distinct rate for each kind
        dones, emits = [], []
        k, n = 0, len(rates)
        while k < n:
            r = rates[k][1]
            left = gap = None
            while k < n and rates[k][1] is r:
                j = rates[k][0]
                k += 1
                p = self.proc[j]
                if p is None:
                    continue
                y = self.progress[j]
                work = p - y
                if left is None or work < left:
                    left = work
                if self.stops_at_emissions and j not in self.signal:
                    work = self._signal_work[j] - y
                    if work > 0 and (gap is None or work < gap):
                        gap = work
            if left is not None:
                dones.append(left / r)
            if gap is not None:
                emits.append(gap / r)
        if dones:
            waits["completion"] = min(dones)
        if emits:
            waits["emission"] = min(emits)
        if self.decision.branch == "setf" and rates:
            level, rho = self.progress[rates[0][0]], rates[0][1]
            if all(self.progress[j] == level and r == rho for j, r in rates[1:]):
                # SETF shares among all alive jobs, the fused rule among
                # the unsignalled ones only: those _unsignalled holds
                above = self._unsignalled.least_above(level)
                if above is not None:
                    waits["merge"] = (above - level) / rho
                least = self._remaining.least()
                if self._crossing_factor is not None and least is not None:
                    wait = (self._crossing_factor * least[0] - level) / rho
                    if wait <= 0:
                        raise RuntimeError(
                            f"fused-rule threshold already crossed at {now + wait} "
                            f"while sharing at {now}"
                        )
                    waits["mode-switch"] = wait
        if not waits:
            return None
        if len(waits) == 1:
            (kind, wait), = waits.items()
            return now + wait, (kind,)
        wait = min(waits.values())
        kinds = tuple(k for k in EVENT_ORDER if k in waits and waits[k] == wait)
        return now + wait, kinds

    # -- main loop ----------------------------------------------------------------

    def _advance(self, until: Fraction) -> None:
        if until == self.now:
            # lemma check: next_event returns only positive waits
            raise RuntimeError(f"zero wait at {self.now}: the run would not advance")
        rates = self.decision.rates
        if rates:
            run = self._run
            if run is not None and run[1] == self.now and run[2] == rates:
                run[1] = until
            else:
                self._close_run()
                self._run = [self.now, until, rates]
            span = until - self.now
            # shared rates are one object: one product per distinct rate
            last = step = None
            for j, r in rates:
                if r is not last:
                    last, step = r, r * span
                self.progress[j] += step
            if not self.stops_at_emissions:
                self._emit_in_passing(until)
            self._changed.update(self.decision.rated_ids)
        self.now = until

    def _emit_in_passing(self, until: Fraction) -> None:
        """Log each rated job's emission strictly between now and the stop
        at until, at its exact time.  One at the stop is due there, after
        its completions; one at or before now was missed, which the stop's
        overshoot check reports."""
        passed = []
        for j, r in self.decision.rates:
            target = self._signal_work.get(j)
            if target is not None and j not in self.signal and target < self.progress[j]:
                t = until - (self.progress[j] - target) / r
                if t > self.now:
                    passed.append((t, j))
        for t, group in groupby(sorted(passed), key=itemgetter(0)):
            jobs = tuple(j for _, j in group)
            self.signal.update(dict.fromkeys(jobs, t))
            self.log.append(Event(t, "emission", jobs))

    def _close_run(self) -> None:
        if self._run is not None:
            self._segments.append(ExecutionSegment(*self._run))
            self._run = None

    def run(self) -> tuple[ScheduleTrace, EventLog]:
        self.apply_instant_events()
        while True:
            if self.horizon is not None and self.now >= self.horizon:
                break
            self.make_decision()
            nxt = self.next_event()
            if nxt is None:
                if self._alive:
                    unresolved = [j for j in self._alive if self.proc[j] is None]
                    if unresolved:
                        raise EngineError(
                            f"unresolved deferred processing time for jobs {unresolved}"
                        )
                    # lemma check: alive jobs get a nonempty decision (the
                    # idle guard), and a rated job with a committed p has a
                    # completion wait, so a run cannot get here
                    raise RuntimeError("simulation stalled with alive jobs")
                break
            t2, kinds = nxt
            if self.horizon is not None and t2 > self.horizon:
                self._advance(self.horizon)
                # the one happening that can be due at the cut: an emission
                # of a rule that does not stop for it
                self._complete_and_emit(self._changed)
                break
            self._advance(t2)
            self._event_count += 1
            if self._event_count > self._event_cap:
                raise EngineError(
                    f"runaway event loop: more than {self._event_cap} stops"
                )
            self.apply_instant_events(kinds)
        self._close_run()
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
    instance: Instance, policy: PolicyKind, horizon: Optional[Fraction] = None
) -> tuple[ScheduleTrace, EventLog]:
    """Run one of the three rules over an instance and return the trace and
    event log."""
    return SimState(instance, policy, horizon=horizon).run()


def replay_check(trace: ScheduleTrace, instance: Instance, policy: PolicyKind) -> bool:
    """Re-simulate and compare against the canonical form of a given trace."""
    fresh, _ = simulate(instance, policy, horizon=trace.horizon)
    return fresh.canonical_bytes() == trace.canonical_bytes()
