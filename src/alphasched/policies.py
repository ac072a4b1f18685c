"""The scheduling rule as one pure decision function over policy views.

The partially clairvoyant rule fuses SRPT and SETF: the signalled job of
least remaining time runs alone when no job is unsignalled or its remaining
time is at most (1-alpha)/alpha times the least progress of an unsignalled
job; otherwise the least-progressed unsignalled jobs share the machine
evenly.  So SRPT is this rule on views that mark every job signalled, at one
signal time so that ties go to the lowest id (Schrage 1968), and SETF is
this rule on views that mark no job signalled (Kalyanasundaram and Pruhs,
JACM 2000).  The engine marks each view the way its run's rule reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .rational import Rat


class PolicyKind(Enum):
    ALPHA = "alpha"
    SRPT = "srpt"
    SETF = "setf"

    @property
    def reads_signals(self) -> bool:
        """Only the fused rule reacts to a signal: SRPT sees every p and
        SETF reads only progress."""
        return self is PolicyKind.ALPHA


class ViewJob(NamedTuple):
    job_id: int
    elapsed: Fraction
    emitted: bool  # signalled, as the run's rule reads it
    remaining: Optional[Fraction]  # None unless emitted
    signal_time: Optional[Fraction]


class PolicyView:
    """The alive jobs at one decision, in id order, and the minima the
    rule reads.  A view given its ``jobs`` scans them for the minima.  A
    live engine view (``source``) scans its few candidates, which hold the
    minima, and builds ``jobs`` only when read.  The minima come from one
    pass over the candidates, made when the first of them is read.
    """

    __slots__ = ("now", "alpha", "_jobs", "_candidates", "_source", "_found")

    def __init__(self, now: Fraction, alpha: Fraction,
                 jobs: Optional[tuple[ViewJob, ...]] = None, source=None):
        self.now, self.alpha = now, alpha
        self._jobs, self._candidates, self._source, self._found = jobs, None, source, None

    @property
    def jobs(self) -> tuple[ViewJob, ...]:
        if self._jobs is None:
            self._jobs = self._source.view_jobs()
        return self._jobs

    def candidates(self) -> tuple[ViewJob, ...]:
        """A subsequence of jobs holding each minimum below."""
        if self._candidates is None:
            self._candidates = self.jobs if self._source is None else self._source.view_candidates()
        return self._candidates

    @property
    def threshold_factor(self) -> Fraction:
        """(1 - alpha) / alpha, which a live engine view reads from its run."""
        if self._source is not None:
            return self._source.threshold_factor
        return (1 - self.alpha) / self.alpha

    def _minima(self) -> tuple:
        """(least unsignalled progress, best signalled job, the unsignalled
        candidates at that progress), in one pass over the candidates."""
        if self._found is None:
            least = best = None
            level: list[int] = []
            for j in self.candidates():
                if j.emitted:
                    if best is None or j.remaining < best.remaining or (
                            j.remaining == best.remaining and (j.signal_time, -j.job_id)
                            > (best.signal_time, -best.job_id)):
                        best = j
                elif least is None or j.elapsed < least:
                    least, level = j.elapsed, [j.job_id]
                elif j.elapsed == least:
                    level.append(j.job_id)
            self._found = least, best, level
        return self._found

    @property
    def least_unsignalled(self) -> Optional[Fraction]:
        """The least progress of an unsignalled job."""
        return self._minima()[0]

    def unsignalled_at(self, level: Fraction) -> tuple[int, ...]:
        """The unsignalled jobs at this progress, in id order."""
        least, _, ids = self._minima()
        if level != least:
            ids = [j.job_id for j in self.candidates() if not j.emitted and j.elapsed == level]
        if self._source is not None:
            ids = set(ids).union(self._source.view_unsignalled_at(level))
        return tuple(sorted(ids))

    @property
    def best_signalled(self) -> Optional[ViewJob]:
        """The signalled job of least remaining time; a later signal, then
        the lower id, breaks ties."""
        return self._minima()[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, PolicyView) and (self.now, self.alpha, self.jobs) == (
            other.now, other.alpha, other.jobs)


@dataclass(frozen=True)
class RateDecision:
    rates: tuple[tuple[int, Fraction], ...]  # sorted by job id, positive entries
    branch: str  # "srpt" | "setf" | "idle"
    rated_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rated_ids", tuple([j for j, _ in self.rates]))


IDLE = RateDecision(rates=(), branch="idle")
ALONE = Rat(1)  # the rate of a job that runs alone, one object for every decision


def decide(view: PolicyView) -> RateDecision:
    """The fused rule, from the view's two minima: the signalled job of
    least remaining time and the least progress of an unsignalled job."""
    best, least = view.best_signalled, view.least_unsignalled
    if best is not None and (least is None or best.remaining <= view.threshold_factor * least):
        return RateDecision(((best.job_id, ALONE),), "srpt")
    if least is None:
        return IDLE
    share = view.unsignalled_at(least)
    rate = Rat(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")
