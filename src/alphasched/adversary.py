"""Instance generators: adaptive lower-bound constructions, a unit-job
denial-of-service tail, and seeded random instances for fuzzing.

The adaptive constructions ship as deferred jobs plus a scripted trigger that
commits processing times from the progress observed at the trigger instant, so
they are replayable against any policy; their worst-case guarantees are stated
against the built-in fused policy.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .model import (
    AdversaryScript,
    Deferred,
    Instance,
    Job,
    ModelError,
    ProgressScaledRule,
    RankPairRule,
    Trigger,
)
from .rational import Rat


def _floor_pow2(exponent: Fraction) -> int:
    """floor(2 ** exponent) for a positive rational exponent, exactly."""
    num, den = exponent.numerator, exponent.denominator
    if num <= 0:
        raise ModelError("exponent must be positive")
    power = 2**num
    lo, hi = 1, 2
    while hi**den <= power:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**den <= power:
            lo = mid
        else:
            hi = mid
    return lo


def _ceil_root4(value: int) -> int:
    """Smallest integer c with c**4 >= value."""
    c = math.isqrt(math.isqrt(value))
    while c**4 < value:
        c += 1
    return c


def gen_det_lb1(alpha: Fraction, k: int) -> tuple[Instance, Fraction]:
    """k identical-looking deferred jobs; one trigger commits p = y/alpha +
    sigma/k from the observed progress.

    The construction is scaled by sigma so that, against the built-in fused
    policy (which shares evenly until the trigger), every job retains at
    least one unit of work at the measurement time sigma * k.
    """
    alpha = Rat(alpha)
    if not (0 < alpha < 1):
        raise ModelError("deterministic bound needs 0 < alpha < 1")
    if k < 2:
        raise ModelError("k must be at least 2")
    slack = (1 - alpha) / alpha + Rat(1, k)
    sigma = Rat(1) if slack >= 1 else 1 / slack
    measure = sigma * k
    jobs = tuple(Job(i, Rat(0), Deferred("commit")) for i in range(1, k + 1))
    rule = ProgressScaledRule(tuple(range(1, k + 1)), 1 / alpha, sigma / k)
    script = AdversaryScript((Trigger("commit", measure, rule),))
    return Instance(jobs, alpha, script), measure


def _phases(alpha: Fraction, k: int):
    """(phase, start, length, a, b) for phases k down to 1 of the phase
    construction: phase i lasts lambda**i, lambda = (4 + alpha) / alpha,
    and releases jobs a and b at its start.  The last phase ends at the
    measurement time."""
    if k < 1:
        raise ModelError("k must be at least 1")
    lam = (4 + alpha) / alpha
    start = Rat(0)
    for phase in range(k, 0, -1):
        length = lam**phase
        a = 2 * (k - phase) + 1
        yield phase, start, length, a, a + 1
        start += length


def gen_det_lb2(alpha: Fraction, k: int) -> tuple[Instance, Fraction]:
    """k phases of geometrically shrinking length lambda**i, two deferred jobs
    per phase; at alpha * lambda**i into the phase the job with more observed
    progress is committed to 2 * lambda**i and the other to lambda**i."""
    alpha = Rat(alpha)
    if not (0 < alpha < 1):
        raise ModelError("deterministic bound needs 0 < alpha < 1")
    jobs, triggers = [], []
    for phase, start, length, a, b in _phases(alpha, k):
        name = f"phase-{phase}"
        jobs += [Job(a, start, Deferred(name)), Job(b, start, Deferred(name))]
        triggers.append(Trigger(name, start + alpha * length, RankPairRule((a, b), 2 * length, length)))
    return Instance(tuple(jobs), alpha, AdversaryScript(tuple(triggers))), start + length


def gen_rand32(alpha: Fraction, k: int, seed: int) -> tuple[Instance, Fraction]:
    """Oblivious variant of the phase construction: within each phase a fair
    coin decides which job carries the long processing time."""
    alpha = Rat(alpha)
    if not (0 < alpha < 1):
        raise ModelError("phase bound needs 0 < alpha < 1")
    rng = random.Random(seed)
    jobs = []
    for _, start, length, a, b in _phases(alpha, k):
        long_first = rng.random() < 0.5
        jobs += [Job(a, start, 2 * length if long_first else length),
                 Job(b, start, length if long_first else 2 * length)]
    return Instance(tuple(jobs), alpha), start + length


def randomized_params(alpha: Fraction) -> tuple[int, int]:
    """(k, t) for the randomized bound: k = floor(2 ** (1/(2-2 alpha))) jobs,
    measured at t = floor(3 (k - k**(3/4)))."""
    alpha = Rat(alpha)
    if not (Rat(1, 2) < alpha < 1):
        raise ModelError("randomized bound needs 1/2 < alpha < 1")
    k = _floor_pow2(1 / (2 - 2 * alpha))
    t = 3 * k - _ceil_root4(81 * k**3)
    return k, t


def sample_geometric_proc(rng: random.Random) -> int:
    """One draw of p = y + 1 with y geometric on {1, 2, ...} with mean 2
    (success probability 1/2)."""
    y = 1
    while rng.random() < 0.5:
        y += 1
    return y + 1


def gen_rand_lb(alpha: Fraction, seed: int) -> tuple[Instance, int]:
    """k jobs at time 0 with geometric processing times (see
    sample_geometric_proc); also returns the measurement time."""
    k, t = randomized_params(alpha)
    rng = random.Random(seed)
    jobs = tuple(
        Job(i + 1, Rat(0), Rat(sample_geometric_proc(rng))) for i in range(k)
    )
    return Instance(jobs, Rat(alpha)), t


def append_dos_tail(instance: Instance, t: Fraction, m: int) -> Instance:
    """Append m unit jobs released at t+1, ..., t+m."""
    t = Rat(t)
    if t < 0:
        raise ModelError("tail start must be nonnegative")
    if m < 1:
        raise ModelError("tail length must be at least 1")
    next_id = max((j.id for j in instance.jobs), default=0) + 1
    tail = [Job(next_id + i, t + 1 + i, Rat(1)) for i in range(m)]
    jobs = tuple(sorted(list(instance.jobs) + tail, key=lambda j: (j.release, j.id)))
    return Instance(jobs, instance.alpha, instance.adversary)


def gen_random_instance(
    n: int,
    max_p: int,
    density: float,
    seed: int,
    alpha: Fraction = Rat(1, 2),
) -> Instance:
    """n jobs with integer releases and processing times; density 1 packs all
    releases at 0, lower densities spread them over about n * max_p * (1 -
    density) time units."""
    if n < 1 or max_p < 1:
        raise ModelError("need n >= 1 and max_p >= 1")
    rng = random.Random(seed)
    span = max(0, round(n * max_p * (1 - density)))
    drawn = sorted(
        (rng.randint(0, span), rng.randint(1, max_p)) for _ in range(n)
    )
    jobs = tuple(
        Job(i + 1, Rat(r), Rat(p)) for i, (r, p) in enumerate(drawn)
    )
    return Instance(jobs, Rat(alpha))
