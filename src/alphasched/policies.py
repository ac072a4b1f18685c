"""The three scheduling rules as pure decision functions over policy views.

The partially clairvoyant rule fuses SRPT and SETF: when the shortest known
remaining time is at most (1-alpha)/alpha times the least progress of any
unsignalled job, it runs that shortest job alone; otherwise it splits the
machine evenly among the least-progressed unsignalled jobs.  At alpha = 0 it
degenerates to plain SRPT and at alpha = 1 to plain SETF, including their
tie-breaking, so the endpoint traces are bit-identical to the pure rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

from .model import UnresolvedProcError
from .rational import Rat


class PolicyKind(Enum):
    ALPHA = "alpha"
    SRPT = "srpt"
    SETF = "setf"

    @property
    def omniscient(self) -> bool:
        """Only SRPT sees remaining times regardless of signals."""
        return self is PolicyKind.SRPT

    @property
    def reads_signals(self) -> bool:
        """Only the fused rule reacts to a signal: SRPT sees every p and
        SETF reads only progress."""
        return self is PolicyKind.ALPHA


class ViewJob(NamedTuple):
    job_id: int
    elapsed: Fraction
    emitted: bool
    remaining: Optional[Fraction]  # None unless emitted or the rule is omniscient
    signal_time: Optional[Fraction]


class PolicyView:
    """The alive jobs at one decision, in id order, and the minima the
    rules read.  A view given its ``jobs`` scans them for the minima.  A
    live engine view (``source``) scans its few candidates, which hold the
    minima its run's rule reads, and builds ``jobs`` only when read.  The
    fused rule's minima come from one pass over the candidates, made when
    the first of them is read.
    """

    __slots__ = ("now", "alpha", "_jobs", "_candidates", "_source", "_fused")

    def __init__(self, now: Fraction, alpha: Fraction,
                 jobs: Optional[tuple[ViewJob, ...]] = None, source=None):
        self.now, self.alpha = now, alpha
        self._jobs, self._candidates, self._source, self._fused = jobs, None, source, None

    @property
    def jobs(self) -> tuple[ViewJob, ...]:
        if self._jobs is None:
            self._jobs = self._source.view_jobs()
        return self._jobs

    def candidates(self) -> tuple[ViewJob, ...]:
        """A subsequence of jobs holding each minimum below that its rule reads."""
        if self._candidates is None:
            self._candidates = self.jobs if self._source is None else self._source.view_candidates()
        return self._candidates

    @property
    def threshold_factor(self) -> Fraction:
        """(1 - alpha) / alpha, which a live engine view reads from its run."""
        if self._source is not None:
            return self._source.threshold_factor
        return (1 - self.alpha) / self.alpha

    def _fused_minima(self) -> tuple:
        """(least unsignalled progress, best signalled job, the unsignalled
        candidates at that progress), in one pass over the candidates."""
        if self._fused is None:
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
            self._fused = least, best, level
        return self._fused

    @property
    def least_unsignalled(self) -> Optional[Fraction]:
        """The least progress of an unsignalled job."""
        return self._fused_minima()[0]

    def unsignalled_at(self, level: Fraction) -> tuple[int, ...]:
        """The unsignalled jobs at this progress, in id order."""
        least, _, ids = self._fused_minima()
        if level != least:
            ids = [j.job_id for j in self.candidates() if not j.emitted and j.elapsed == level]
        if self._source is not None:
            ids = set(ids).union(self._source.view_unsignalled_at(level))
        return tuple(sorted(ids))

    @property
    def best_signalled(self) -> Optional[ViewJob]:
        """The signalled job of least remaining time; a later signal, then
        the lower id, breaks ties."""
        return self._fused_minima()[1]

    @property
    def shortest(self) -> Optional[ViewJob]:
        """The job of least remaining time, the lower id first among ties."""
        best = None
        for j in self.candidates():
            if j.remaining is None:
                raise UnresolvedProcError(
                    f"job {j.job_id}: remaining time unavailable to an SRPT decision"
                )
            if best is None or j.remaining < best.remaining or (
                    j.remaining == best.remaining and j.job_id < best.job_id):
                best = j
        return best

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


def setf_decide(view: PolicyView) -> RateDecision:
    """Split the machine evenly among alive jobs of least elapsed work."""
    if not view.jobs:
        return IDLE
    least = min(j.elapsed for j in view.jobs)
    share = sorted(j.job_id for j in view.jobs if j.elapsed == least)
    rate = Rat(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")


def srpt_decide(view: PolicyView) -> RateDecision:
    """Run the alive job with the least remaining work; ties go to the lowest id."""
    best = view.shortest
    return IDLE if best is None else RateDecision(((best.job_id, ALONE),), "srpt")


def alpha_clairvoyant_decide(view: PolicyView) -> RateDecision:
    """The fused rule; endpoints delegate to the pure policies.

    It reads two minima of the view: the signalled job of least remaining
    time, and the least progress of an unsignalled job.  The threshold holds
    when the former's remaining time is at most (1-alpha)/alpha times the
    latter, with the minimum over an empty set read as +infinity: then that
    job runs alone, otherwise the unsignalled jobs at the least progress
    share the machine.
    """
    if view.alpha == 0:
        return srpt_decide(view)
    if view.alpha == 1:
        return setf_decide(view)
    best, least = view.best_signalled, view.least_unsignalled
    if best is not None and (least is None or best.remaining <= view.threshold_factor * least):
        return RateDecision(((best.job_id, ALONE),), "srpt")
    if least is None:
        return IDLE
    share = view.unsignalled_at(least)
    rate = Rat(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")


DECIDERS = {
    PolicyKind.ALPHA: alpha_clairvoyant_decide,
    PolicyKind.SRPT: srpt_decide,
    PolicyKind.SETF: setf_decide,
}


def decide(kind: PolicyKind, view: PolicyView) -> RateDecision:
    return DECIDERS[kind](view)
