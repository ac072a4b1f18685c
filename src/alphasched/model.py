"""Domain model: instances, schedule traces and the derived-quantity calculus.

A ``ScheduleTrace`` is the single ground-truth record of a schedule, a list of
non-overlapping constant-rate segments.  Elapsed work, remaining work, the
alive/signalled partitions, lifetimes and completion/signal times are all
derived from it with exact rational arithmetic, so equality tests carry no
tolerance anywhere.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .rational import Rat, format_rat, parse_int, parse_rat


class ModelError(Exception):
    """Invalid instance or trace data."""


class UnknownJobError(ModelError):
    """A job id that does not exist in the instance."""


class UnresolvedProcError(ModelError):
    """A clairvoyant-only quantity was requested for an uncommitted job."""


@dataclass(frozen=True)
class Deferred:
    """Processing time left open, to be committed later by a scripted trigger."""

    trigger_id: str


@dataclass(frozen=True)
class Job:
    id: int
    release: Fraction
    proc: Union[Fraction, Deferred]

    def __post_init__(self):
        object.__setattr__(self, "release", Rat(self.release))
        if self.release < 0:
            raise ModelError(f"job {self.id}: negative release {self.release}")
        if not isinstance(self.proc, Deferred):
            object.__setattr__(self, "proc", Rat(self.proc))
            if self.proc <= 0:
                raise ModelError(f"job {self.id}: processing time must be positive")

    @property
    def committed(self) -> bool:
        return not isinstance(self.proc, Deferred)


class _Rule:
    """What the commit rules share: ``params`` names each rule's rational
    fields once, for construction and for both JSON directions."""

    params: tuple[str, ...]

    def __post_init__(self):
        # a job named twice would receive two commitments of which only one survives
        jobs = tuple(self.jobs)
        if len(set(jobs)) != len(jobs):
            raise ModelError(f"commit rule names a job twice: {list(jobs)}")
        object.__setattr__(self, "jobs", jobs)
        for name in self.params:
            object.__setattr__(self, name, Rat(getattr(self, name)))


@dataclass(frozen=True)
class ProgressScaledRule(_Rule):
    """Commit p = scale * observed_progress + offset for each listed job.

    Jobs are ranked by (observed progress, id) and assigned by rank, so equal
    observations resolve deterministically.
    """

    jobs: tuple[int, ...]
    scale: Fraction
    offset: Fraction

    kind = "progress-scaled"
    params = ("scale", "offset")

    def commit(self, observed: Mapping[int, Fraction]) -> dict[int, Fraction]:
        ranked = sorted(self.jobs, key=lambda j: (observed[j], j))
        levels = sorted(observed[j] for j in self.jobs)
        return {j: self.scale * y + self.offset for j, y in zip(ranked, levels)}


@dataclass(frozen=True)
class RankPairRule(_Rule):
    """Commit the long processing time to whichever of two jobs has made more
    progress; on a tie the lower id takes the long one."""

    jobs: tuple[int, int]
    high: Fraction
    low: Fraction

    kind = "rank-pair"
    params = ("high", "low")

    def __post_init__(self):
        super().__post_init__()
        if len(self.jobs) != 2:
            raise ModelError("rank-pair rule needs exactly two jobs")

    def commit(self, observed: Mapping[int, Fraction]) -> dict[int, Fraction]:
        a, b = self.jobs
        if observed[a] > observed[b] or (observed[a] == observed[b] and a < b):
            return {a: self.high, b: self.low}
        return {b: self.high, a: self.low}


CommitRule = Union[ProgressScaledRule, RankPairRule]
RULES = {cls.kind: cls for cls in (ProgressScaledRule, RankPairRule)}


@dataclass(frozen=True)
class Trigger:
    id: str
    fire_at: Fraction
    rule: CommitRule

    def __post_init__(self):
        object.__setattr__(self, "fire_at", Rat(self.fire_at))
        if self.fire_at < 0:
            raise ModelError(f"trigger {self.id}: negative fire time")


@dataclass(frozen=True)
class AdversaryScript:
    triggers: tuple[Trigger, ...]

    def __post_init__(self):
        object.__setattr__(self, "triggers", tuple(self.triggers))
        times = [tr.fire_at for tr in self.triggers]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ModelError("trigger fire times must be strictly increasing")
        ids = [tr.id for tr in self.triggers]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate trigger ids")

    def trigger(self, trigger_id: str) -> Trigger:
        for tr in self.triggers:
            if tr.id == trigger_id:
                return tr
        raise ModelError(f"unknown trigger {trigger_id!r}")


@dataclass(frozen=True)
class Instance:
    jobs: tuple[Job, ...]
    alpha: Fraction
    adversary: Optional[AdversaryScript] = None

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "alpha", Rat(self.alpha))
        if not (0 <= self.alpha <= 1):
            raise ModelError(f"alpha must lie in [0,1], got {self.alpha}")
        by_id = {j.id: j for j in self.jobs}
        if len(by_id) != len(self.jobs):
            raise ModelError("duplicate job ids")
        object.__setattr__(self, "_by_id", by_id)
        keys = [(j.release, j.id) for j in self.jobs]
        if keys != sorted(keys):
            raise ModelError("jobs must be sorted by (release, id)")
        if self.adversary is not None:
            for trigger in self.adversary.triggers:
                unknown = sorted(set(trigger.rule.jobs) - by_id.keys())
                if unknown:
                    raise UnknownJobError(f"trigger {trigger.id!r} commits unknown jobs {unknown}")
        for job in self.jobs:
            if not job.committed:
                if self.adversary is None:
                    raise ModelError(f"job {job.id} is deferred but no adversary script given")
                trigger = self.adversary.trigger(job.proc.trigger_id)
                if job.id not in trigger.rule.jobs:
                    raise ModelError(
                        f"job {job.id} defers to trigger {trigger.id!r} which does not commit it"
                    )

    def job(self, job_id: int) -> Job:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id}") from None

    @property
    def resolved(self) -> bool:
        return all(j.committed for j in self.jobs)

    def proc_of(self, job_id: int) -> Fraction:
        job = self.job(job_id)
        if not job.committed:
            raise UnresolvedProcError(f"job {job_id} has an unresolved processing time")
        return job.proc

    def with_committed(self, procs: Mapping[int, Fraction]) -> "Instance":
        """Return the realized instance with the given deferred jobs committed.

        The adversary script is dropped once every job is committed.
        """
        jobs = []
        for job in self.jobs:
            if job.id in procs:
                if job.committed:
                    raise ModelError(f"job {job.id} is already committed")
                jobs.append(Job(job.id, job.release, Rat(procs[job.id])))
            else:
                jobs.append(job)
        adversary = None if all(j.committed for j in jobs) else self.adversary
        return Instance(tuple(jobs), self.alpha, adversary)

    def with_alpha(self, alpha: Fraction) -> "Instance":
        return Instance(self.jobs, Rat(alpha), self.adversary)


def _rule_to_json(rule: CommitRule) -> dict:
    obj = {"kind": rule.kind, "jobs": list(rule.jobs)}
    obj.update((name, format_rat(getattr(rule, name))) for name in rule.params)
    return obj


def _field(obj, key: str, where: str, kind: type = object):
    """obj[key] of a parsed JSON object, which must be of the given type; a
    ModelError names the field otherwise."""
    if not isinstance(obj, dict):
        raise ModelError(f"{where}: expected a JSON object")
    if key not in obj:
        raise ModelError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ModelError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _rat_field(obj, key: str, where: str) -> Fraction:
    try:
        return parse_rat(_field(obj, key, where))
    except ValueError as exc:
        raise ModelError(f"{where}.{key}: {exc}") from None


def _rule_from_json(obj, where: str) -> CommitRule:
    kind = _field(obj, "kind", where)
    jobs = _field(obj, "jobs", where, list)
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in jobs):
        raise ModelError(f"{where}.jobs: expected a list of job ids")
    cls = RULES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelError(f"{where}: unknown commit rule kind {kind!r}")
    return cls(tuple(jobs), *(_rat_field(obj, name, where) for name in cls.params))


def instance_to_json(instance: Instance) -> dict:
    jobs = []
    for job in instance.jobs:
        proc = {"deferred": job.proc.trigger_id} if not job.committed else format_rat(job.proc)
        jobs.append({"id": job.id, "release": format_rat(job.release), "proc": proc})
    obj = {"alpha": format_rat(instance.alpha), "jobs": jobs}
    if instance.adversary is not None:
        obj["adversary"] = {
            "triggers": [
                {"id": tr.id, "fire_at": format_rat(tr.fire_at), "rule": _rule_to_json(tr.rule)}
                for tr in instance.adversary.triggers
            ]
        }
    return obj


def instance_from_json(obj) -> Instance:
    """The instance of a parsed JSON object; a missing field or a value of the
    wrong type raises a ModelError that names it."""
    jobs = []
    for k, rec in enumerate(_field(obj, "jobs", "instance", list)):
        where = f"jobs[{k}]"
        if isinstance(_field(rec, "proc", where), dict):
            proc = Deferred(_field(rec["proc"], "deferred", f"{where}.proc", str))
        else:
            proc = _rat_field(rec, "proc", where)
        jobs.append(Job(_field(rec, "id", where, int), _rat_field(rec, "release", where), proc))
    adversary = None
    if obj.get("adversary") is not None:
        triggers = []
        script = _field(obj, "adversary", "instance", dict)
        for k, rec in enumerate(_field(script, "triggers", "adversary", list)):
            where = f"adversary.triggers[{k}]"
            triggers.append(Trigger(
                _field(rec, "id", where, str),
                _rat_field(rec, "fire_at", where),
                _rule_from_json(_field(rec, "rule", where), f"{where}.rule"),
            ))
        adversary = AdversaryScript(tuple(triggers))
    return Instance(tuple(jobs), _rat_field(obj, "alpha", "instance"), adversary)


def load_instance(path) -> Instance:
    """The instance in a JSON file; an unreadable file or invalid JSON raises
    a ModelError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read instance {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ModelError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_json(obj)


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_json(instance), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _rate_entry(j, r) -> tuple[int, Fraction]:
    """(j, Rat(r)) for a rate entry off the fast path; j must be an int."""
    if type(j) is not int:
        raise ModelError(f"segment job id {j!r} is not an int")
    return j, Rat(r)


def _canonical(rates) -> bool:
    """Whether rates are a tuple of (int, Rat) pairs with strictly
    increasing ids, which sorting and normalising would leave as they are."""
    if type(rates) is not tuple:
        return False
    last = None
    for entry in rates:
        if type(entry) is not tuple:
            return False
        j, r = entry  # raises as the slow path would for any other length
        if type(j) is not int or type(r) is not Rat or (last is not None and j <= last):
            return False
        last = j
    return True


@dataclass(frozen=True)
class ExecutionSegment:
    """Constant rate assignment on [start, end); rates are positive and sum to at most 1."""

    start: Fraction
    end: Fraction
    rates: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        # a value that is already a Fraction is kept, not rebuilt; the type
        # test comes first, because isinstance on Fraction goes through ABCMeta
        for name in ("start", "end"):
            value = getattr(self, name)
            if type(value) is not Rat and not isinstance(value, Fraction):
                object.__setattr__(self, name, Rat(value))
        rates = self.rates
        canonical = _canonical(rates)
        if not canonical:
            rates = tuple(sorted(
                (j, r) if type(j) is int and (type(r) is Rat or isinstance(r, Fraction)) else _rate_entry(j, r)
                for j, r in rates
            ))
            object.__setattr__(self, "rates", rates)
        if self.start < 0 or self.start >= self.end:
            raise ModelError(f"bad segment bounds [{self.start}, {self.end}]")
        if not canonical and len({j for j, _ in rates}) != len(rates):
            raise ModelError("duplicate job in segment rates")
        # a rate object shared by a run of jobs is tested once, totalled as r * count
        total, last, count = 0, None, 0
        for _, r in rates:
            if r is not last:
                if r <= 0:
                    raise ModelError("segment rates must be positive")
                if count:
                    total += last * count
                last, count = r, 0
            count += 1
        if count and total + last * count > 1:
            raise ModelError("segment rates exceed unit speed")

    @property
    def total_rate(self) -> Fraction:
        return sum((r for _, r in self.rates), Rat(0))


Interval = tuple[Fraction, Fraction]


class Partition(NamedTuple):
    """The algorithm's alive jobs at one instant, split by their signal:
    alive = nonclairvoyant | clairvoyant, disjointly."""

    alive: frozenset[int]
    nonclairvoyant: frozenset[int]  # elapsed work at most alpha * p
    clairvoyant: frozenset[int]  # elapsed work beyond alpha * p


@dataclass(frozen=True)
class TimePoint:
    """Both schedules' state at one check time, computed once and read by
    every check made at that time; the only way a check gets that state.
    ``sweep`` makes the points of increasing times, each carried forward
    from the last."""

    t: Fraction
    work: Mapping[int, Fraction]  # the algorithm's elapsed work y_j(t), every job
    part: Partition  # the algorithm's partition at t
    opt_alive: frozenset[int]  # the optimum's alive set O(t)

    @classmethod
    def sweep(
        cls, alg_trace: ScheduleTrace, opt_trace: ScheduleTrace, times: Sequence[Fraction]
    ) -> Iterator["TimePoint"]:
        """The points of the non-decreasing times.  The work column
        advances by the segments passed since the last time
        (``ScheduleTrace.work_columns``) and the alive sets change only at
        releases and completions (``ScheduleTrace.alive_sets``).  A job
        turns clairvoyant at its first work beyond alpha * p, not at its
        signal time: one that idles at its signal point stays unsignalled.
        A partition is kept while none of that changes."""
        if alg_trace.instance.jobs != opt_trace.instance.jobs:
            raise ModelError("traces must share one instance")
        times = [Rat(t) for t in times]
        # (last time at which the job's work is at most alpha * p, job)
        turns = sorted(
            (end, j) for j in alg_trace._profiles if (end := alg_trace._signal_end(j)) is not None
        )
        clairvoyant: set[int] = set()
        k, part = 0, Partition(frozenset(), frozenset(), frozenset())
        columns = alg_trace.work_columns(times)
        alive_sets, opt_sets = alg_trace.alive_sets(times), opt_trace.alive_sets(times)
        last = Rat(0)
        for t, work, alive, opt_alive in zip(times, columns, alive_sets, opt_sets):
            if t < last:
                raise ValueError(
                    f"time point sweep asked for t={format_rat(t)} after t={format_rat(last)}"
                )
            last, turned = t, k
            while k < len(turns) and turns[k][0] < t:
                clairvoyant.add(turns[k][1])
                k += 1
            if k != turned or alive is not part.alive:
                signalled = alive & clairvoyant
                part = Partition(alive, alive - signalled, signalled)
            yield cls(t, work, part, opt_alive)


def merge_intervals(spans: Iterable[Interval]) -> list[Interval]:
    """Closed intervals merged to maximal disjoint ones, in order."""
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def add_work(column: dict[int, Fraction], seg: ExecutionSegment, length: Fraction) -> None:
    """Add to the column the work each job rated on the segment receives in
    a stretch of it of the given length; a rate shared by several jobs is
    multiplied once."""
    rate = step = None
    for j, r in seg.rates:
        if r is not rate:
            rate, step = r, r * length
        column[j] = column[j] + step if j in column else step


def _merge_adjacent(segments: Sequence[ExecutionSegment]) -> tuple[ExecutionSegment, ...]:
    merged: list[ExecutionSegment] = []
    for seg in segments:
        if merged and merged[-1].end == seg.start and merged[-1].rates == seg.rates:
            merged[-1] = ExecutionSegment(merged[-1].start, seg.end, seg.rates)
        else:
            merged.append(seg)
    return tuple(merged)


TRACE_CSV_HEADER = "start,end,job_id,rate"


class ScheduleTrace:
    """Canonical schedule record over a fully resolved instance.

    Completion and signal times are derived from the segments at construction
    time, and the representation is validated: segments are ordered and
    disjoint, rated jobs are known and released, per-job work never exceeds
    the processing time, and the total-flow identity
    sum_j (C_j - r_j) = integral |A(t)| dt holds exactly for complete traces.

    One pass over the merged segments runs these checks and builds every
    index the queries read: per job its work profile, busy intervals and
    signal point alpha * p_j, and the segment starts.  It also builds
    ``alive_curve``, the breakpoints (t, |alive on [t, next)|) at 0, releases
    and completions closed by (makespan, 0), and ``total_flow``, its area over
    [0, makespan]: the flow accrued up to the horizon.

    Point queries (``work_at``, ``alive_at``, ``partition``) compute their
    answer afresh and keep nothing.  A caller that reads many increasing
    times sweeps instead: ``work_columns`` and ``alive_sets`` carry each
    answer forward from the last, and ``TimePoint.sweep`` builds on them.
    """

    def __init__(self, instance: Instance, segments: Sequence[ExecutionSegment], horizon: Optional[Fraction] = None):
        if not instance.resolved:
            raise ModelError("schedule trace requires a fully resolved instance")
        self.instance = instance
        self.horizon = None if horizon is None else Rat(horizon)
        self.segments = _merge_adjacent(sorted(segments, key=attrgetter("start")))
        self._starts = [seg.start for seg in self.segments]

        # per job: profile breakpoints, cumulative work at each and the rate
        # on each piece between them (0 on gaps); busy intervals; alpha * p_j
        self._profiles: dict[int, tuple[list[Fraction], list[Fraction], list[Fraction]]] = {
            job.id: ([job.release], [Rat(0)], []) for job in instance.jobs
        }
        busy: dict[int, list[Interval]] = {job.id: [] for job in instance.jobs}
        self._signal_work = {job.id: instance.alpha * job.proc for job in instance.jobs}
        last = Rat(0)
        for seg in self.segments:
            if last > seg.start:
                raise ModelError(f"overlapping segments at {seg.start}")
            last = seg.end
            length = seg.end - seg.start
            # shared rates are one object: one product per distinct rate
            rate = step = None
            for j, r in seg.rates:
                if r is not rate:
                    rate, step = r, r * length
                if j not in busy:
                    raise UnknownJobError(f"segment rates unknown job {j}")
                times, cums, rates = self._profiles[j]
                if seg.start < times[0]:
                    raise ModelError(f"job {j} rated before release")
                if seg.start > times[-1]:
                    times.append(seg.start)
                    cums.append(cums[-1])
                    rates.append(Rat(0))
                times.append(seg.end)
                cums.append(cums[-1] + step)
                rates.append(r)
                spans = busy[j]
                if spans and spans[-1][1] == seg.start:
                    spans[-1] = (spans[-1][0], seg.end)
                else:
                    spans.append((seg.start, seg.end))
        self._busy = {j: tuple(spans) for j, spans in busy.items()}

        self.completions: dict[int, Fraction] = {}
        self.emissions: dict[int, Fraction] = {}
        for job in instance.jobs:
            times, cums, _ = self._profiles[job.id]
            # a job rated at or after C_j would get more than p_j, so this
            # check also rules out work after completion
            if cums[-1] > job.proc:
                raise ModelError(f"job {job.id} receives more work than its processing time")
            # every rated piece adds positive work, so the first breakpoint
            # at which the work reaches p_j is the last one
            if cums[-1] == job.proc:
                self.completions[job.id] = times[-1]
            hit = self._crossing_time(job.id, self._signal_work[job.id])
            if hit is not None:
                self.emissions[job.id] = hit

        self.makespan = self.horizon if self.horizon is not None else last
        if self.makespan < last:
            raise ModelError("horizon precedes the last segment")
        # alive count: +1 at each release, -1 at each completion; an
        # unfinished job stays alive through the horizon.  The releases come
        # sorted with the jobs, so one walk merges them with the completions
        ups = [job.release for job in instance.jobs]
        downs = sorted(self.completions.values())
        ups.append(self.makespan)
        downs.append(self.makespan)
        curve, area, count, lo, i, k = [], Rat(0), 0, Rat(0), 0, 0
        while lo < self.makespan:
            while ups[i] == lo:
                count, i = count + 1, i + 1
            while downs[k] == lo:
                count, k = count - 1, k + 1
            hi = min(ups[i], downs[k])
            curve.append((lo, count))
            area += count * (hi - lo)
            lo = hi
        self.alive_curve = tuple(curve) + ((self.makespan, 0),)
        self.total_flow = area
        if self.complete:
            # a lemma check: the curve counts each job on [r_j, C_j), so its
            # area is sum_j (C_j - r_j) on every trace accepted above
            total = sum((self.completions[j.id] - j.release for j in instance.jobs), Rat(0))
            if total != area:
                raise ModelError(f"flow-time identity violated: sum flows {total} != alive area {area}")

    # -- derived quantities ------------------------------------------------

    def _crossing_time(self, job_id: int, target: Fraction) -> Optional[Fraction]:
        """Earliest time the cumulative work of a job reaches target, if ever."""
        times, cums, rates = self._profiles[job_id]
        k = bisect_left(cums, target)
        if k == len(cums):
            return None
        if cums[k] == target:
            return times[k]
        return times[k - 1] + (target - cums[k - 1]) / rates[k - 1]

    def _signal_end(self, job_id: int) -> Optional[Fraction]:
        """The last time at which the job's work is at most alpha * p (it
        exceeds it at every later time), if its work ever exceeds it."""
        times, cums, rates = self._profiles[job_id]
        target = self._signal_work[job_id]
        k = bisect_right(cums, target)
        if k == len(cums):
            return None
        # the piece before breakpoint k adds positive work, so its rate is positive
        return times[k - 1] + (target - cums[k - 1]) / rates[k - 1]

    def _work(self, job_id: int, t: Fraction) -> Fraction:
        """``elapsed_work`` without the argument checks."""
        times, cums, rates = self._profiles[job_id]
        if t <= times[0]:
            return Rat(0)
        idx = bisect_right(times, t) - 1
        if idx >= len(rates):
            return cums[-1]
        rate = rates[idx]
        if not rate:
            return cums[idx]
        return cums[idx] + rate * (t - times[idx])

    def elapsed_work(self, job_id: int, t: Fraction) -> Fraction:
        """Total processing received by the job up to time t."""
        t = Rat(t)
        if t < 0:
            raise ModelError("time must be nonnegative")
        if job_id not in self._profiles:
            raise UnknownJobError(f"unknown job id {job_id}")
        return self._work(job_id, t)

    def work_at(self, t: Fraction) -> Mapping[int, Fraction]:
        """Elapsed work of every job of the instance at time t, read-only."""
        t = Rat(t)
        if t < 0:
            raise ModelError("time must be nonnegative")
        return MappingProxyType({j: self._work(j, t) for j in self._profiles})

    def work_columns(self, times: Iterable[Fraction]) -> Iterator[Mapping[int, Fraction]]:
        """``work_at`` at each of the non-decreasing, nonnegative times,
        each column advanced from the last by the segments passed since."""
        segments, k = self.segments, 0
        done = {j: Rat(0) for j in self._profiles}  # the work on segments[:k]
        for t in times:
            while k < len(segments) and segments[k].end <= t:
                add_work(done, segments[k], segments[k].end - segments[k].start)
                k += 1
            column = dict(done)
            if k < len(segments) and segments[k].start < t:
                add_work(column, segments[k], t - segments[k].start)
            yield MappingProxyType(column)

    def remaining(self, job_id: int, t: Fraction) -> Fraction:
        """Remaining processing time at t; zero once completed."""
        return self.instance.proc_of(job_id) - self.elapsed_work(job_id, t)

    def alive_at(self, t: Fraction) -> frozenset[int]:
        t = Rat(t)
        out = set()
        for job in self.instance.jobs:
            if job.release > t:
                continue
            done = self.completions.get(job.id)
            if done is None or t < done:
                out.add(job.id)
        return frozenset(out)

    def alive_sets(self, times: Iterable[Fraction]) -> Iterator[frozenset[int]]:
        """``alive_at`` at each of the non-decreasing times: the set changes
        only at releases and completions, and is the same object while it
        does not."""
        changes = sorted(
            [(job.release, True, job.id) for job in self.instance.jobs]
            + [(done, False, j) for j, done in self.completions.items()]
        )
        alive: set[int] = set()
        k, current = 0, frozenset()
        for t in times:
            if k < len(changes) and changes[k][0] <= t:
                while k < len(changes) and changes[k][0] <= t:
                    _, released, j = changes[k]
                    if released:
                        alive.add(j)
                    else:
                        alive.discard(j)
                    k += 1
                current = frozenset(alive)
            yield current

    def partition(self, t: Fraction) -> Partition:
        """``alive_at(t)`` split by elapsed work: a job sits on the
        nonclairvoyant side while ``work_at(t)`` is at most alpha * p
        (boundary inclusive), and strictly beyond it counts as clairvoyant.
        """
        t = Rat(t)
        alive, work = self.alive_at(t), self.work_at(t)
        nonclair = frozenset(j for j in alive if work[j] <= self._signal_work[j])
        return Partition(alive, nonclair, alive - nonclair)

    def lifetime(self, job_ids: Iterable[int], t: Fraction) -> list[Interval]:
        """Union of per-job intervals [release, min(completion, t)], merged to
        maximal disjoint closed intervals."""
        ids = sorted(set(job_ids))
        if not ids:
            raise ModelError("lifetime of an empty job set")
        t = Rat(t)
        spans = []
        for j in ids:
            lo, hi = self.instance.job(j).release, self.lifetime_end(j, t)
            if lo <= hi:
                spans.append((lo, hi))
        return merge_intervals(spans)

    def lifetime_end(self, job_id: int, t: Fraction) -> Fraction:
        """End min(C_j, t) of the job's lifetime at time t."""
        done = self.completions.get(job_id)
        return t if done is None else min(done, t)

    def interval_work(self, job_id: int, interval: Interval) -> Fraction:
        lo, hi = Rat(interval[0]), Rat(interval[1])
        if lo < 0 or hi < lo:
            raise ModelError(f"bad interval [{lo}, {hi}]")
        return self.elapsed_work(job_id, hi) - self.elapsed_work(job_id, lo)

    def segment_at(self, t: Fraction) -> Optional[ExecutionSegment]:
        """The segment in force on [t, t + eps), if any (right-limit view)."""
        t = Rat(t)
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0 and self.segments[idx].end > t:
            return self.segments[idx]
        return None

    def segments_meeting(self, lo: Fraction, hi: Fraction) -> Iterator[ExecutionSegment]:
        """The segments that start before hi and end after lo, in order,
        found by bisecting the segment starts."""
        segments = self.segments
        k = max(bisect_right(self._starts, lo) - 1, 0)
        while k < len(segments) and segments[k].start < hi:
            if segments[k].end > lo:
                yield segments[k]
            k += 1

    def ran_within(self, lo: Fraction, hi: Fraction) -> set[int]:
        """The jobs rated on some stretch of positive length inside
        [lo, hi]: those of ``segments_meeting(lo, hi)``."""
        ran: set[int] = set()
        if lo < hi:
            for seg in self.segments_meeting(lo, hi):
                ran.update(j for j, _ in seg.rates)
        return ran

    def busy_intervals(self, job_id: int) -> tuple[Interval, ...]:
        """Maximal intervals on which the job receives positive rate."""
        try:
            return self._busy[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id}") from None

    @property
    def complete(self) -> bool:
        return len(self.completions) == len(self.instance.jobs)

    def event_times(self) -> list[Fraction]:
        """Sorted distinct times at which any derived quantity can change."""
        points = {Rat(0), self.makespan}
        for seg in self.segments:
            points.add(seg.start)
            points.add(seg.end)
        for job in self.instance.jobs:
            if job.release <= self.makespan:
                points.add(job.release)
        points.update(self.completions.values())
        points.update(s for s in self.emissions.values() if s <= self.makespan)
        return sorted(points)

    # -- serialization ---------------------------------------------------------

    def canonical_dict(self) -> dict:
        return {
            "instance": instance_to_json(self.instance),
            "segments": [
                [format_rat(s.start), format_rat(s.end), [[j, format_rat(r)] for j, r in s.rates]]
                for s in self.segments
            ],
            "completions": {str(j): format_rat(c) for j, c in sorted(self.completions.items())},
            "emissions": {str(j): format_rat(s) for j, s in sorted(self.emissions.items())},
            "makespan": format_rat(self.makespan),
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":")).encode()

    def csv_rows(self) -> list[str]:
        rows = [TRACE_CSV_HEADER]
        for seg in self.segments:
            for j, r in seg.rates:
                rows.append(f"{format_rat(seg.start)},{format_rat(seg.end)},{j},{format_rat(r)}")
        return rows

    @staticmethod
    def from_csv_rows(instance: Instance, rows: Sequence[str], horizon: Optional[Fraction] = None) -> "ScheduleTrace":
        if not rows or rows[0].strip() != TRACE_CSV_HEADER:
            raise ModelError(f"trace CSV must start with the header {TRACE_CSV_HEADER!r}")
        body = [r for r in rows[1:] if r.strip()]
        spans: dict[tuple[Fraction, Fraction], list[tuple[int, Fraction]]] = {}
        for row in body:
            try:
                start, end, job_id, rate = row.split(",")
                span, entry = (parse_rat(start), parse_rat(end)), (parse_int(job_id), parse_rat(rate))
            except ValueError as exc:
                raise ModelError(f"bad trace row {row!r}: {exc}") from None
            spans.setdefault(span, []).append(entry)
        segments = [ExecutionSegment(lo, hi, tuple(rates)) for (lo, hi), rates in sorted(spans.items())]
        return ScheduleTrace(instance, segments, horizon=horizon)
