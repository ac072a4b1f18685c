import sys
from fractions import Fraction as F

import pytest

from alphasched.engine import simulate
from alphasched.metrics import build_report
from alphasched.model import Instance, Job, ModelError
from alphasched.oracle import brute_force_min_total_flow, quantum_simulate
from alphasched.policies import PolicyKind
from conftest import small_instance


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
