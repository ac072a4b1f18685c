from fractions import Fraction as F

import pytest

from alphasched.engine import simulate
from alphasched.metrics import build_report
from alphasched.model import Instance, Job
from alphasched.policies import PolicyKind, PolicyView, ViewJob, decide
from conftest import small_instance


def view(now, alpha, entries):
    jobs = tuple(
        ViewJob(
            job_id=j,
            elapsed=F(y),
            emitted=emitted,
            remaining=None if rem is None else F(rem),
            signal_time=None if sig is None else F(sig),
        )
        for (j, y, emitted, rem, sig) in entries
    )
    return PolicyView(now=F(now), alpha=F(alpha), jobs=jobs)


class TestSetf:
    """SETF is the fused rule on views that mark no job signalled."""

    def test_pair_shares_evenly(self):
        dec = decide(view(0, 1, [(1, 0, False, None, None), (2, 0, False, None, None)]))
        assert dec.rates == ((1, F(1, 2)), (2, F(1, 2)))

    def test_fresh_arrival_runs_alone(self):
        dec = decide(view(3, 1, [(1, 2, False, None, None), (2, 0, False, None, None)]))
        assert dec.rates == ((2, F(1)),)

    def test_three_jobs_two_minima(self):
        dec = decide(
            view(
                9,
                1,
                [
                    (1, 1, False, None, None),
                    (2, 1, False, None, None),
                    (3, 4, False, None, None),
                ],
            )
        )
        assert dec.rates == ((1, F(1, 2)), (2, F(1, 2)))

    def test_empty_view_idles(self):
        assert decide(view(0, 1, [])).branch == "idle"


class TestSrpt:
    """SRPT is the fused rule on views that mark every job signalled, at
    one time."""

    def test_preempts_for_short_job(self):
        inst = Instance((Job(1, 0, 3), Job(2, 1, 1)), F(1, 2))
        trace, _ = simulate(inst, PolicyKind.SRPT)
        assert trace.completions == {2: F(2), 1: F(4)}
        assert build_report(trace).total_flow == 5

    def test_single_job(self):
        dec = decide(view(0, 0, [(1, 0, True, 4, 0)]))
        assert dec.rates == ((1, F(1)),)

    def test_equal_remaining_lowest_id(self):
        dec = decide(view(0, 0, [(2, 0, True, 3, 0), (1, 0, True, 3, 0)]))
        assert dec.rates == ((1, F(1)),)


class TestFusedRule:
    def test_worked_example_trace(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert [(s.start, s.end, s.rates) for s in trace.segments] == [
            (F(0), F(2), ((1, F(1, 2)), (2, F(1, 2)))),
            (F(2), F(3), ((2, F(1)),)),
            (F(3), F(6), ((1, F(1)),)),
        ]
        report = build_report(trace)
        assert report.per_job_flow == {1: F(6), 2: F(3)}
        assert report.total_flow == 9

    def test_empty_signalled_side_forces_sharing(self):
        dec = decide(view(0, F(1, 2), [(1, 0, False, None, None)]))
        assert dec.branch == "setf"
        assert dec.rates == ((1, F(1)),)

    def test_fresh_zero_progress_preempts_signalled_work(self):
        # remaining 5 <= (1-a)/a * 0 fails: new arrival wins the machine
        dec = decide(
            view(
                4,
                F(1, 2),
                [(1, 6, True, 5, 3), (2, 0, False, None, None)],
            )
        )
        assert dec.branch == "setf"
        assert dec.rates == ((2, F(1)),)

    def test_unsignalled_at_any_level(self):
        # the fused rule reads the least level; any other level is found too
        v = view(3, F(1, 2), [(3, 1, False, None, None), (1, 0, False, None, None),
                              (2, 1, False, None, None), (4, 1, True, 2, 1)])
        assert v.least_unsignalled == 0
        assert (v.unsignalled_at(F(0)), v.unsignalled_at(F(1)), v.unsignalled_at(F(2))) == ((1,), (2, 3), ())

    def test_threshold_equality_takes_single_job_branch(self):
        # remaining 1 <= 1 * progress 1 holds with equality
        dec = decide(
            view(
                2,
                F(1, 2),
                [(1, 1, False, None, None), (2, 1, True, 1, 2)],
            )
        )
        assert dec.branch == "srpt"
        assert dec.rates == ((2, F(1)),)

    def test_remaining_tie_latest_signal_wins(self):
        dec = decide(
            view(
                5,
                F(1, 2),
                [
                    (1, 3, True, 1, 2),
                    (2, 3, True, 1, 4),
                ],
            )
        )
        assert dec.rates == ((2, F(1)),)

    def test_remaining_and_signal_tie_lowest_id(self):
        dec = decide(
            view(
                5,
                F(1, 2),
                [
                    (2, 3, True, 1, 4),
                    (1, 3, True, 1, 4),
                ],
            )
        )
        assert dec.rates == ((1, F(1)),)


class TestViewMinima:
    """A hand-built view finds its minima by one scan of its jobs: the
    reference the engine's ranked views are tested against."""

    JOBS = [
        (4, 2, False, None, None),
        (3, 5, True, 1, 2),
        (1, 2, False, None, None),
        (2, 7, True, 1, 3),
    ]

    def test_minima(self):
        v = view(6, F(1, 2), self.JOBS)
        assert v.least_unsignalled == 2
        assert v.unsignalled_at(F(2)) == (1, 4)
        assert v.best_signalled.job_id == 2  # remaining tie: the later signal

    def test_empty_view(self):
        v = view(0, F(1, 2), [])
        assert (v.least_unsignalled, v.unsignalled_at(F(0)), v.best_signalled) == (None, (), None)

    def test_views_compare_by_content(self):
        assert view(6, F(1, 2), self.JOBS) == view(6, F(1, 2), self.JOBS)
        assert view(6, F(1, 2), self.JOBS) != view(6, F(1, 2), self.JOBS[:3])


class TestEndpointReductions:
    @pytest.mark.parametrize("seed", range(12))
    def test_alpha_zero_matches_srpt(self, seed):
        inst = small_instance(seed, alpha=F(0))
        a = simulate(inst, PolicyKind.ALPHA)[0].canonical_bytes()
        b = simulate(inst, PolicyKind.SRPT)[0].canonical_bytes()
        assert a == b

    @pytest.mark.parametrize("seed", range(12))
    def test_alpha_one_matches_setf(self, seed):
        inst = small_instance(seed, alpha=F(1))
        a = simulate(inst, PolicyKind.ALPHA)[0].canonical_bytes()
        b = simulate(inst, PolicyKind.SETF)[0].canonical_bytes()
        assert a == b
