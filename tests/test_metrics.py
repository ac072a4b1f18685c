from fractions import Fraction as F

import pytest

from alphasched.engine import simulate
from alphasched.metrics import build_report, delta, integrate_curve, ratio
from alphasched.model import Instance, Job, ModelError
from alphasched.policies import PolicyKind
from conftest import small_instance


class TestTotalFlow:
    def test_single_job(self):
        trace, _ = simulate(Instance((Job(1, 0, 1),), F(1, 2)), PolicyKind.ALPHA)
        assert build_report(trace).total_flow == 1

    def test_setf_vs_srpt_pair(self, pair_instance):
        setf, _ = simulate(pair_instance, PolicyKind.SETF)
        srpt, _ = simulate(pair_instance, PolicyKind.SRPT)
        assert build_report(setf).total_flow == 8
        assert build_report(srpt).total_flow == 6

    def test_worked_example(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert build_report(trace).total_flow == 9

    def test_incomplete_run_reports_accrued_flow(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF, horizon=F(3))
        report = build_report(trace)
        assert not report.complete
        assert report.total_flow == 6  # two alive jobs for three time units
        assert report.per_job_flow == {}


class TestDelta:
    def test_zero_past_makespan(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF)
        assert delta(trace, 100) == 0

    def test_threshold_filters(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF)
        assert delta(trace, 3) == 2
        assert delta(trace, 3, F(1, 2)) == 2
        assert delta(trace, 3, F(3, 4)) == 0

    def test_lb1_counts(self):
        from alphasched.adversary import gen_det_lb1

        inst, t = gen_det_lb1(F(1, 2), 4)
        alg, _ = simulate(inst, PolicyKind.ALPHA)
        assert delta(alg, t) == 4
        assert delta(alg, t, 1) == 4  # remaining 5/4 each
        assert all(alg.remaining(j, t) == F(5, 4) for j in alg.alive_at(t))


class TestRatio:
    def test_identical_traces(self, pair_instance):
        srpt, _ = simulate(pair_instance, PolicyKind.SRPT)
        rep = build_report(srpt)
        assert ratio(rep, rep) == 1

    def test_setf_over_srpt(self, pair_instance):
        setf = build_report(simulate(pair_instance, PolicyKind.SETF)[0])
        srpt = build_report(simulate(pair_instance, PolicyKind.SRPT)[0])
        assert ratio(setf, srpt) == F(4, 3)

    def test_worked_example_over_srpt(self, worked_example):
        alg = build_report(simulate(worked_example, PolicyKind.ALPHA)[0])
        srpt = build_report(simulate(worked_example, PolicyKind.SRPT)[0])
        assert srpt.total_flow == 8
        assert ratio(alg, srpt) == F(9, 8)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_below_one_against_srpt(self, seed):
        inst = small_instance(seed)
        alg = build_report(simulate(inst, PolicyKind.ALPHA)[0])
        srpt = build_report(simulate(inst, PolicyKind.SRPT)[0])
        assert ratio(alg, srpt) >= 1


class TestCurve:
    def test_identity_on_curve(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        curve = trace.alive_curve
        assert integrate_curve(curve, 0, trace.makespan) == build_report(trace).total_flow

    def test_reversed_window_rejected(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SRPT)
        with pytest.raises(ModelError, match="^empty integration interval$"):
            integrate_curve(trace.alive_curve, 3, 1)

    def test_window_integral(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SRPT)
        curve = trace.alive_curve
        # two alive on [0,2), one on [2,4)
        assert integrate_curve(curve, 1, 3) == 3
