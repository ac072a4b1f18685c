"""Scalar and curve metrics over schedule traces."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import ModelError, ScheduleTrace, UnresolvedProcError
from .rational import format_rat


@dataclass(frozen=True)
class MetricsReport:
    total_flow: Fraction
    per_job_flow: dict[int, Fraction]
    makespan: Fraction
    delta_curve: tuple[tuple[Fraction, int], ...]  # step function t -> |alive|
    complete: bool

    def to_json(self) -> dict:
        return {
            "total_flow": format_rat(self.total_flow),
            "per_job_flow": {str(j): format_rat(f) for j, f in sorted(self.per_job_flow.items())},
            "makespan": format_rat(self.makespan),
            "delta_curve": [[format_rat(t), n] for t, n in self.delta_curve],
            "complete": self.complete,
        }


def alive_count_curve(trace: ScheduleTrace) -> tuple[tuple[Fraction, int], ...]:
    """Breakpoints (t, |alive on [t, next)|) at releases and completions."""
    curve = [(lo, count) for (lo, _), count in trace.alive_steps()]
    curve.append((trace.makespan, 0))
    return tuple(curve)


def integrate_curve(
    curve: tuple[tuple[Fraction, int], ...], lo: Fraction, hi: Fraction
) -> Fraction:
    """Exact integral of the step function over [lo, hi]; constant after the
    last breakpoint."""
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        raise ModelError("empty integration interval")
    total = Fraction(0)
    for idx, (t, n) in enumerate(curve):
        t_next = curve[idx + 1][0] if idx + 1 < len(curve) else None
        seg_lo = max(t, lo)
        seg_hi = hi if t_next is None else min(t_next, hi)
        if seg_hi > seg_lo:
            total += n * (seg_hi - seg_lo)
    return total


def total_flow_time(trace: ScheduleTrace) -> Fraction:
    """Integral of |A(t)| over [0, makespan]: the sum of completion minus
    release for complete traces (the trace enforces this identity), the flow
    accrued up to the horizon otherwise (no completion is ever fabricated)."""
    return integrate_curve(alive_count_curve(trace), Fraction(0), trace.makespan)


def build_report(trace: ScheduleTrace) -> MetricsReport:
    per_job = {
        j: c - trace.instance.job(j).release for j, c in sorted(trace.completions.items())
    }
    curve = alive_count_curve(trace)
    return MetricsReport(
        total_flow=integrate_curve(curve, Fraction(0), trace.makespan),
        per_job_flow=per_job,
        makespan=trace.makespan,
        delta_curve=curve,
        complete=trace.complete,
    )


def delta(trace: ScheduleTrace, t: Fraction, min_remaining: Optional[Fraction] = None) -> int:
    """Number of alive jobs at t, optionally only those with at least the
    given remaining work."""
    t = Fraction(t)
    alive = trace.alive_at(t)
    if min_remaining is None:
        return len(alive)
    threshold = Fraction(min_remaining)
    count = 0
    for j in alive:
        if not trace.instance.job(j).committed:
            raise UnresolvedProcError(f"job {j} unresolved; cannot filter by remaining work")
        if trace.remaining(j, t) >= threshold:
            count += 1
    return count


def ratio(alg_report: MetricsReport, opt_report: MetricsReport) -> Fraction:
    if opt_report.total_flow == 0:
        raise ModelError("optimal total flow is zero")
    return alg_report.total_flow / opt_report.total_flow


FLAT_CSV_HEADER = "instance_id,policy,alpha,total_flow,ratio"


def flat_csv_row(
    instance_id: str,
    policy: str,
    alpha: Fraction,
    report: MetricsReport,
    opt_report: MetricsReport,
) -> str:
    return ",".join(
        [
            instance_id,
            policy,
            format_rat(alpha),
            format_rat(report.total_flow),
            format_rat(ratio(report, opt_report)),
        ]
    )
