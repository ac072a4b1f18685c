import sys
from fractions import Fraction as F

import pytest

from alphasched.adversary import gen_det_lb1, gen_det_lb2
from alphasched.engine import simulate
from alphasched.metrics import build_report
from alphasched.model import Instance, Job, ModelError
from alphasched.oracle import brute_force_min_total_flow, quantum_simulate
from alphasched.policies import PolicyKind
from conftest import corpus_instance, small_instance
from oracle_reference import reference_quantum_simulate


class TestQuantumSimulator:
    def test_round_robin_pair_close_to_fluid(self, pair_instance):
        run = quantum_simulate(pair_instance, PolicyKind.SETF)
        fluid = build_report(simulate(pair_instance, PolicyKind.SETF)[0])
        assert abs(run.total_flow - fluid.total_flow) <= F(4, 64)

    def test_srpt_is_exact_on_integer_instances(self):
        inst = Instance((Job(1, 0, 3), Job(2, 1, 1)), F(1, 2))
        run = quantum_simulate(inst, PolicyKind.SRPT)
        assert run.completions == {2: F(2), 1: F(4)}
        assert run.total_flow == 5

    def test_fused_rule_matches_fluid_on_worked_example(self, worked_example):
        run = quantum_simulate(worked_example, PolicyKind.ALPHA)
        assert run.total_flow == 9

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_discretization_bound(self, seed, kind):
        inst = small_instance(seed)
        n = len(inst.jobs)
        fluid = build_report(simulate(inst, kind)[0]).total_flow
        run = quantum_simulate(inst, kind)
        assert abs(run.total_flow - fluid) <= F(n * n, 64)

    def test_rejects_unresolved(self):
        from alphasched.model import AdversaryScript, Deferred, ProgressScaledRule, Trigger

        script = AdversaryScript((Trigger("c", 1, ProgressScaledRule((1,), 2, 1)),))
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(ModelError):
            quantum_simulate(inst, PolicyKind.SETF)

    @pytest.mark.parametrize("quantum", [F(0), F(-1, 64)], ids=["zero", "negative"])
    def test_rejects_non_positive_quantum(self, pair_instance, quantum):
        with pytest.raises(ModelError, match="quantum must be positive"):
            quantum_simulate(pair_instance, PolicyKind.SETF, quantum)


def assert_matches_reference(inst, kind, quantum, label):
    run = quantum_simulate(inst, kind, quantum)
    ref = reference_quantum_simulate(inst, kind, quantum)
    where = f"{label} {kind.value} q={quantum}"
    assert run.completions == ref.completions, where
    assert run.total_flow == ref.total_flow, where


class TestIntegerUnits:
    """The integer-unit oracle against the `Fraction` loop it replaced."""

    def test_matches_fraction_reference_on_corpus(self):
        for seed in range(1, 61):
            inst = corpus_instance(seed)
            for kind in PolicyKind:
                for quantum in (F(1, 4), F(1, 16), F(1, 64)):
                    assert_matches_reference(inst, kind, quantum, f"seed {seed}")

    def test_matches_fraction_reference_on_lower_bounds(self):
        # the realized lb2 instances at alpha 3/4 carry denominators 3, 9 and 27,
        # so odd, non-dyadic and larger-than-1 quanta all change the scale
        denominators = set()
        for gen in (gen_det_lb1, gen_det_lb2):
            for alpha in (F(1, 2), F(2, 3), F(3, 4)):
                for k in (2, 3):
                    inst = simulate(gen(alpha, k)[0], PolicyKind.ALPHA)[0].instance
                    denominators |= {
                        x.denominator for j in inst.jobs for x in (j.release, j.proc)
                    }
                    for kind in PolicyKind:
                        for quantum in (F(1, 16), F(1, 3), F(2, 7), F(3, 2)):
                            label = f"{gen.__name__} alpha={alpha} k={k}"
                            assert_matches_reference(inst, kind, quantum, label)
        assert {2, 3, 5, 9, 27} <= denominators

    def test_matches_fraction_reference_with_ids_against_release_order(self):
        # ties go to the lowest id, not to the earliest arrival: relabel the
        # corpus so that later releases carry lower ids
        for seed in range(1, 31):
            inst = corpus_instance(seed)
            jobs = sorted(
                (Job(100 - j.id, j.release, j.proc) for j in inst.jobs),
                key=lambda j: (j.release, j.id),
            )
            relabelled = Instance(tuple(jobs), inst.alpha)
            for kind in PolicyKind:
                for quantum in (F(1, 4), F(1, 16)):
                    assert_matches_reference(relabelled, kind, quantum, f"relabelled seed {seed}")


class TestBruteForceOptimum:
    def test_matches_srpt_on_pair(self, pair_instance):
        assert brute_force_min_total_flow(pair_instance) == 6

    def test_idle_gap_handled(self):
        inst = Instance((Job(1, 0, 1), Job(2, 7, 2)), F(1, 2))
        assert brute_force_min_total_flow(inst) == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_equals_srpt_flow(self, seed):
        inst = small_instance(seed)
        srpt = build_report(simulate(inst, PolicyKind.SRPT)[0]).total_flow
        assert brute_force_min_total_flow(inst) == srpt

    def test_rejects_fractional_input(self):
        inst = Instance((Job(1, 0, F(3, 2)),), F(1, 2))
        with pytest.raises(ModelError):
            brute_force_min_total_flow(inst)

    def test_long_job_leaves_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        inst = Instance((Job(1, 0, 12000),), F(1, 2))
        assert brute_force_min_total_flow(inst) == 12000
        assert sys.getrecursionlimit() == limit
