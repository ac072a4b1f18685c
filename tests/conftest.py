from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from alphasched.adversary import gen_random_instance
from alphasched.model import (
    AdversaryScript,
    Deferred,
    Instance,
    Job,
    ProgressScaledRule,
    RankPairRule,
    ScheduleTrace,
    TimePoint,
    Trigger,
)
from alphasched.rational import Rat

CORPUS_ALPHAS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
CORPUS_SIZE = 500


def corpus_instance(seed: int) -> Instance:
    """Frozen fuzz corpus: small integer instances cycling through the three
    benchmark alphas."""
    alpha = CORPUS_ALPHAS[seed % 3]
    n = 2 + seed % 5
    return gen_random_instance(n, max_p=8, density=0.8, seed=seed, alpha=alpha)


def point_at(alg_trace: ScheduleTrace, opt_trace: ScheduleTrace, t) -> TimePoint:
    """Both schedules' state at one time from the traces' point queries,
    with nothing carried from an earlier time: the reference for every
    point ``TimePoint.sweep`` makes, and the way a test reads one time."""
    t = Rat(t)
    return TimePoint(t, alg_trace.work_at(t), alg_trace.partition(t), opt_trace.alive_at(t))


def small_instance(seed: int, alpha=Fraction(1, 2)) -> Instance:
    """Instances matching the brute-force oracle regime: n <= 6, integer
    releases <= 10, processing times <= 8."""
    n = 1 + seed % 6
    return gen_random_instance(n, max_p=8, density=0.8, seed=seed, alpha=alpha)


@pytest.fixture
def pair_instance() -> Instance:
    """Two equal jobs; the standing example throughout the suite."""
    return Instance((Job(1, 0, 2), Job(2, 0, 2)), Fraction(1, 2))


@pytest.fixture
def worked_example() -> Instance:
    """p=4 and p=2 released together at alpha=1/2: share, run the signalled
    short job, then finish the long one."""
    return Instance((Job(1, 0, 4), Job(2, 0, 2)), Fraction(1, 2))


@st.composite
def json_instances(draw, agreeing=True) -> Instance:
    """Valid instances of every JSON shape: committed jobs with rational
    releases and processing times, and deferred jobs committed by
    progress-scaled and rank-pair triggers.

    An agreeing script commits every job at or beyond its progress at the
    trigger, which is at most the fire time: alpha > 0, a progress-scaled
    rule has scale >= 1/alpha and a positive offset (a job that has not
    run observes 0), and a rank-pair rule's times are at least
    fire_at/alpha.  Otherwise scales, offsets and times are arbitrary, and
    a script may contradict the schedule."""
    positive = st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))
    nonnegative = st.builds(Fraction, st.integers(0, 40), st.integers(1, 6))
    entries = [(draw(nonnegative), draw(positive)) for _ in range(draw(st.integers(0, 4)))]
    rules = []
    for k in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([ProgressScaledRule, RankPairRule]))
        size = 2 if kind is RankPairRule else draw(st.integers(1, 3))
        entries += [(draw(nonnegative), Deferred(f"t{k}")) for _ in range(size)]
        rules.append(kind)
    entries.sort(key=lambda e: e[0])
    ids = sorted(draw(st.sets(st.integers(1, 99), min_size=len(entries), max_size=len(entries))))
    jobs = tuple(Job(i, release, proc) for i, (release, proc) in zip(ids, entries))
    den = draw(st.integers(1, 6))
    alpha = Fraction(draw(st.integers(1 if agreeing and rules else 0, den)), den)
    triggers = []
    fire_at = Fraction(0)
    for k, kind in enumerate(rules):
        fire_at += draw(positive)
        ruled = tuple(job.id for job in jobs if job.proc == Deferred(f"t{k}"))
        if kind is RankPairRule and agreeing:
            least = fire_at / alpha
            rule = RankPairRule(ruled, least + draw(nonnegative), least + draw(nonnegative))
        elif kind is RankPairRule:
            rule = RankPairRule(ruled, draw(positive), draw(positive))
        elif agreeing:
            rule = ProgressScaledRule(ruled, 1 / alpha + draw(nonnegative), draw(positive))
        else:
            offset = draw(st.builds(Fraction, st.integers(-5, 20), st.integers(1, 6)))
            rule = ProgressScaledRule(ruled, draw(positive), offset)
        triggers.append(Trigger(f"t{k}", fire_at, rule))
    return Instance(jobs, alpha, AdversaryScript(tuple(triggers)) if triggers else None)
