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


def _threshold_holds(view: PolicyView) -> bool:
    """min remaining over signalled <= (1-alpha)/alpha * min progress over
    unsignalled, with min over an empty set read as +infinity."""
    signalled = [j for j in view.jobs if j.emitted]
    if not signalled:
        return False
    fresh = [j for j in view.jobs if not j.emitted]
    if not fresh:
        return True
    factor = (1 - view.alpha) / view.alpha
    lhs = min(j.remaining for j in signalled)
    rhs = factor * min(j.elapsed for j in fresh)
    return lhs <= rhs


def alpha_clairvoyant_decide(view: PolicyView) -> RateDecision:
    """The fused rule; endpoints delegate to the pure policies."""
    if not view.jobs:
        return IDLE
    if view.alpha == 0:
        return srpt_decide(view)
    if view.alpha == 1:
        return setf_decide(view)
    if _threshold_holds(view):
        signalled = [j for j in view.jobs if j.emitted]
        # least remaining first, latest signal wins remaining ties, then id
        best = min(signalled, key=lambda j: (j.remaining, -j.signal_time, j.job_id))
        return RateDecision(((best.job_id, Fraction(1)),), "srpt")
    fresh = [j for j in view.jobs if not j.emitted]
    least = min(j.elapsed for j in fresh)
    share = sorted(j.job_id for j in fresh if j.elapsed == least)
    rate = Fraction(1, len(share))
    return RateDecision(tuple((j, rate) for j in share), "setf")


DECIDERS = {
    PolicyKind.ALPHA: alpha_clairvoyant_decide,
    PolicyKind.SRPT: srpt_decide,
    PolicyKind.SETF: setf_decide,
}


def decide(kind: PolicyKind, view: PolicyView) -> RateDecision:
    return DECIDERS[kind](view)
