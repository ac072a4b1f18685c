import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from alphasched.adversary import (
    _floor_pow2,
    append_dos_tail,
    gen_det_lb1,
    gen_det_lb2,
    gen_rand32,
    gen_rand_lb,
    gen_random_instance,
    randomized_params,
    sample_geometric_proc,
)
from alphasched.engine import simulate
from alphasched.metrics import delta
from alphasched.model import ModelError, instance_to_json
from alphasched.policies import PolicyKind
from alphasched.rational import format_rat


class TestDeterministicBound1:
    def test_shape(self):
        inst, t = gen_det_lb1(F(1, 2), 4)
        assert len(inst.jobs) == 4
        assert all(j.release == 0 for j in inst.jobs)
        assert all(not j.committed for j in inst.jobs)
        assert t == 4

    def test_known_counts_alpha_half_k4(self):
        inst, t = gen_det_lb1(F(1, 2), 4)
        alg, log = simulate(inst, PolicyKind.ALPHA)
        assert {j.proc for j in alg.instance.jobs} == {F(9, 4)}
        assert delta(alg, t, 1) == 4
        opt, _ = simulate(alg.instance, PolicyKind.SRPT)
        assert delta(opt, t) == 3
        # nothing signals before the trigger
        assert not [e for e in log if e.kind == "emission" and e.time < t]

    def test_scaling_keeps_unit_remaining(self):
        # alpha = 3/4 needs the scaled construction to keep remainders >= 1
        inst, t = gen_det_lb1(F(3, 4), 6)
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        assert delta(alg, t, 1) == 6
        assert min(alg.remaining(j, t) for j in alg.alive_at(t)) == 1

    def test_commit_legality_by_construction(self):
        for alpha in (F(1, 4), F(1, 2), F(7, 8)):
            inst, t = gen_det_lb1(alpha, 5)
            alg, _ = simulate(inst, PolicyKind.ALPHA)  # raises if illegal
            assert delta(alg, t, 1) == 5

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            gen_det_lb1(F(0), 4)
        with pytest.raises(ModelError):
            gen_det_lb1(F(1, 2), 1)


class TestDeterministicBound2:
    def test_lambda_value(self):
        inst, t = gen_det_lb2(F(1, 2), 2)
        lam = (4 + F(1, 2)) / F(1, 2)
        assert lam == 9
        assert len(inst.jobs) == 4
        releases = sorted({j.release for j in inst.jobs})
        assert releases == [0, 81]  # phase lengths 81 then 9
        assert t == 90

    def test_counts_alpha_half_k5(self):
        inst, t = gen_det_lb2(F(1, 2), 5)
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        opt, _ = simulate(alg.instance, PolicyKind.SRPT)
        assert delta(alg, t, 1) == 10
        assert delta(opt, t) == 5

    def test_survivor_remaining_exceeds_phase_floor(self):
        inst, t = gen_det_lb2(F(1, 2), 3)
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        opt, _ = simulate(alg.instance, PolicyKind.SRPT)
        assert delta(alg, t, 1) == 6 and delta(opt, t) == 3
        lam = F(9)
        alive = alg.alive_at(t)
        assert len(alive) == 6
        by_phase = {}
        for job in alg.instance.jobs:
            by_phase.setdefault(job.release, []).append(job.id)
        for phase_idx, (release, ids) in enumerate(sorted(by_phase.items())):
            i = 3 - phase_idx  # phases indexed k..1 in release order
            for j in ids:
                assert alg.remaining(j, t) >= F(1, 2) / 4 * lam**i

    def test_deterministic_output(self):
        a, _ = gen_det_lb2(F(2, 3), 3)
        b, _ = gen_det_lb2(F(2, 3), 3)
        assert a == b


class TestFloorPow2:
    @pytest.mark.parametrize("exponent", [F(0), F(-1, 2)])
    def test_exponent_must_be_positive(self, exponent):
        # 2 ** num is a float for a negative num, so the guard stays
        with pytest.raises(ModelError, match="^exponent must be positive$"):
            _floor_pow2(exponent)

    def test_largest_integer_root(self):
        for p in range(1, 9):
            for q in range(1, 9):
                c = _floor_pow2(F(p, q))
                assert c**q <= 2**p < (c + 1) ** q, (p, q)


class TestRandomizedBound:
    def test_params_formulae(self):
        assert randomized_params(F(3, 4)) == (4, 3)
        assert randomized_params(F(7, 8)) == (16, 24)

    def test_alpha_range(self):
        with pytest.raises(ModelError):
            randomized_params(F(1, 2))

    def test_same_seed_same_instance(self):
        a, _ = gen_rand_lb(F(7, 8), 11)
        b, _ = gen_rand_lb(F(7, 8), 11)
        assert a == b

    def test_instance_shape(self):
        inst, t = gen_rand_lb(F(7, 8), 0)
        assert len(inst.jobs) == 16 and t == 24
        assert all(j.release == 0 and j.proc.denominator == 1 and j.proc >= 2 for j in inst.jobs)

    def test_draws_are_pinned(self):
        inst, _ = gen_rand_lb(F(7, 8), 0)
        assert [j.proc for j in inst.jobs] == [2, 2, 4, 3, 4, 2, 2, 3, 2, 3, 2, 2, 2, 3, 2, 2]

    def test_mean_processing_time_is_three(self):
        rng = random.Random(12345)
        n = 100_000
        mean = sum(sample_geometric_proc(rng) for _ in range(n)) / n
        assert abs(mean - 3) / 3 < 0.02


class TestRand32:
    def test_oblivious_and_seeded(self):
        a, t = gen_rand32(F(1, 2), 3, 7)
        b, _ = gen_rand32(F(1, 2), 3, 7)
        assert a == b and a.adversary is None
        lengths = sorted(j.proc for j in a.jobs)
        lam = F(9)
        assert {lam, 2 * lam} <= set(lengths)
        assert t == sum(lam**i for i in range(1, 4))

    def test_each_phase_has_long_and_short(self):
        inst, _ = gen_rand32(F(1, 2), 4, 3)
        by_release = {}
        for job in inst.jobs:
            by_release.setdefault(job.release, []).append(job.proc)
        for procs in by_release.values():
            assert max(procs) == 2 * min(procs)


@pytest.mark.parametrize(
    "make, digest, t",
    [
        (lambda: gen_rand32(F(1, 2), 3, 5), "370e3631a20b176b", "819/1"),
        (lambda: gen_rand32(F(2, 3), 4, 7), "304e69845fc3fc48", "2800/1"),
        (lambda: gen_rand32(F(3, 4), 2, 0), "e2e04c6526264ce5", "418/9"),
        (lambda: gen_det_lb2(F(2, 3), 4), "5af810cb66289f27", "2800/1"),
        (lambda: gen_det_lb2(F(3, 4), 5), "0d0747270f0771dc", "2940079/243"),
    ],
)
def test_phase_generators_pinned(make, digest, t):
    # the sha256 prefix of the instance JSON and the measurement time of
    # both phase constructions, so a change to their shared phase loop
    # shows as a byte change
    inst, measure = make()
    blob = json.dumps(instance_to_json(inst), sort_keys=True).encode()
    assert (hashlib.sha256(blob).hexdigest()[:16], format_rat(measure)) == (digest, t)


class TestDosTail:
    def test_window_ratio_approaches_count_limit_from_above(self):
        # the tail-window flow ratio decreases toward (delta+1)/(delta*+1)
        from alphasched.metrics import build_report, integrate_curve

        inst, t = gen_det_lb2(F(1, 2), 2)
        limit = F(4 + 1, 2 + 1)
        ratios = []
        for m in (100, 1000):
            tailed = append_dos_tail(inst, t, m)
            alg, _ = simulate(tailed, PolicyKind.ALPHA)
            opt, _ = simulate(alg.instance, PolicyKind.SRPT)
            hi = t + m + 1
            wa = integrate_curve(build_report(alg).delta_curve, t, hi)
            wo = integrate_curve(build_report(opt).delta_curve, t, hi)
            ratios.append(wa / wo)
        assert limit < ratios[1] < ratios[0]

    def test_unit_jobs_at_next_integers(self, pair_instance):
        tailed = append_dos_tail(pair_instance, 10, 3)
        new = [j for j in tailed.jobs if j.id > 2]
        assert [(j.release, j.proc) for j in new] == [(11, 1), (12, 1), (13, 1)]

    def test_tail_before_zero_rejected(self, pair_instance):
        with pytest.raises(ModelError, match="^tail start must be nonnegative$"):
            append_dos_tail(pair_instance, -1, 2)

    def test_tail_only(self):
        from alphasched.model import Instance

        base = Instance((), F(1, 2))
        tailed = append_dos_tail(base, 0, 2)
        assert [(j.release, j.proc) for j in tailed.jobs] == [(1, 1), (2, 1)]


class TestRandomInstances:
    def test_single_job(self):
        inst = gen_random_instance(1, 8, 0.8, 0)
        assert len(inst.jobs) == 1

    def test_seed_determinism(self):
        assert gen_random_instance(6, 8, 0.8, 42) == gen_random_instance(6, 8, 0.8, 42)

    def test_bounds(self):
        for seed in range(30):
            inst = gen_random_instance(6, 8, 0.8, seed)
            assert all(1 <= j.proc <= 8 for j in inst.jobs)
            assert all(0 <= j.release <= 10 for j in inst.jobs)
