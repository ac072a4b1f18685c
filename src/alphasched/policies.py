"""The three scheduling rules as pure decision functions over policy views.

The partially clairvoyant rule fuses SRPT and SETF: when the shortest known
remaining time is at most (1-alpha)/alpha times the least progress of any
unsignalled job, it runs that shortest job alone; otherwise it splits the
machine evenly among the least-progressed unsignalled jobs.  At alpha = 0 it
degenerates to plain SRPT and at alpha = 1 to plain SETF, including their
tie-breaking, so the endpoint traces are bit-identical to the pure rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .model import UnresolvedProcError


class PolicyKind(Enum):
    ALPHA = "alpha"
    SRPT = "srpt"
    SETF = "setf"

    @property
    def omniscient(self) -> bool:
        """Only SRPT sees remaining times regardless of signals."""
        return self is PolicyKind.SRPT

    @property
    def merge_pool(self) -> str:
        """Only the fused rule keeps signalled jobs out of the shared set."""
        return "unsignalled" if self is PolicyKind.ALPHA else "all"


@dataclass(frozen=True)
class ViewJob:
    job_id: int
    release: Fraction
    elapsed: Fraction
    emitted: bool
    remaining: Optional[Fraction]  # None unless emitted or the view is omniscient
    signal_time: Optional[Fraction]


@dataclass(frozen=True)
class PolicyView:
    now: Fraction
    alpha: Fraction
    omniscient: bool
    jobs: tuple[ViewJob, ...]


@dataclass(frozen=True)
class RateDecision:
    rates: tuple[tuple[int, Fraction], ...]  # sorted by job id, positive entries
    branch: str  # "srpt" | "setf" | "idle"

    @property
    def rated_ids(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.rates)


IDLE = RateDecision(rates=(), branch="idle")


def setf_decide(view: PolicyView) -> RateDecision:
    """Split the machine evenly among alive jobs of least elapsed work."""
    if not view.jobs:
        return IDLE
    least = min(j.elapsed for j in view.jobs)
    share = sorted(j.job_id for j in view.jobs if j.elapsed == least)
    rate = Fraction(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")


def srpt_decide(view: PolicyView) -> RateDecision:
    """Run the alive job with the least remaining work; ties go to the lowest id."""
    if not view.jobs:
        return IDLE
    for j in view.jobs:
        if j.remaining is None:
            raise UnresolvedProcError(
                f"job {j.job_id}: remaining time unavailable to an SRPT decision"
            )
    best = min(view.jobs, key=lambda j: (j.remaining, j.job_id))
    return RateDecision(((best.job_id, Fraction(1)),), "srpt")


def alpha_clairvoyant_decide(view: PolicyView) -> RateDecision:
    """The fused rule; endpoints delegate to the pure policies.

    One pass over the view finds the signalled job of least remaining time
    (a later signal, then the lower id, breaks ties) and the unsignalled
    jobs of least progress.  The threshold holds when the former's remaining
    time is at most (1-alpha)/alpha times the latter's progress, with the
    minimum over an empty set read as +infinity: then that job runs alone,
    otherwise the least-progressed unsignalled jobs share the machine.
    """
    if not view.jobs:
        return IDLE
    if view.alpha == 0:
        return srpt_decide(view)
    if view.alpha == 1:
        return setf_decide(view)
    best = None
    least = None
    share: list[int] = []
    for j in view.jobs:
        if j.emitted:
            if (
                best is None
                or j.remaining < best.remaining
                or (
                    j.remaining == best.remaining
                    and (-j.signal_time, j.job_id) < (-best.signal_time, best.job_id)
                )
            ):
                best = j
        elif least is None or j.elapsed < least:
            least = j.elapsed
            share = [j.job_id]
        elif j.elapsed == least:
            share.append(j.job_id)
    if best is not None and (least is None or best.remaining <= (1 - view.alpha) / view.alpha * least):
        return RateDecision(((best.job_id, Fraction(1)),), "srpt")
    share.sort()
    rate = Fraction(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")


DECIDERS = {
    PolicyKind.ALPHA: alpha_clairvoyant_decide,
    PolicyKind.SRPT: srpt_decide,
    PolicyKind.SETF: setf_decide,
}


def decide(kind: PolicyKind, view: PolicyView) -> RateDecision:
    return DECIDERS[kind](view)
