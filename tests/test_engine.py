import json
import re
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from alphasched import engine, policies
from alphasched.adversary import append_dos_tail, gen_det_lb1, gen_det_lb2
from alphasched.engine import (
    CommitmentError,
    EngineError,
    SimState,
    _Ranking,
    replay_check,
    simulate,
)
from alphasched.metrics import build_report
from alphasched.model import (
    AdversaryScript,
    Deferred,
    ExecutionSegment,
    Instance,
    Job,
    ModelError,
    ProgressScaledRule,
    ScheduleTrace,
    Trigger,
)
from alphasched.policies import PolicyKind, PolicyView, RateDecision, ViewJob, decide
from alphasched.rational import Rat
from conftest import CORPUS_SIZE, corpus_instance, json_instances

DATA = Path(__file__).parent / "data"


class TestSimulateBasics:
    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_single_job_any_policy(self, kind):
        inst = Instance((Job(1, 0, 1),), F(1, 2))
        trace, _ = simulate(inst, kind)
        assert trace.segments == (ExecutionSegment(0, 1, ((1, F(1)),)),)
        assert trace.completions == {1: F(1)}

    def test_setf_pair(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF)
        assert trace.completions == {1: F(4), 2: F(4)}
        assert build_report(trace).total_flow == 8

    def test_srpt_preemption(self):
        inst = Instance((Job(1, 0, 3), Job(2, 1, 1)), F(1, 2))
        trace, _ = simulate(inst, PolicyKind.SRPT)
        assert trace.completions == {2: F(2), 1: F(4)}
        assert build_report(trace).total_flow == 5

    def test_arrival_gap_idles(self):
        inst = Instance((Job(1, 0, 1), Job(2, 5, 1)), F(1, 2))
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        assert [(s.start, s.end) for s in trace.segments] == [(F(0), F(1)), (F(5), F(6))]

    def test_event_log_order_and_kinds(self, worked_example):
        _, log = simulate(worked_example, PolicyKind.ALPHA)
        assert [(e.time, e.kind) for e in log] == [
            (F(0), "arrival"),
            (F(2), "emission"),
            (F(2), "mode-switch"),
            (F(3), "completion"),
            (F(3), "mode-switch"),
            (F(4), "emission"),
            (F(4), "mode-switch"),
            (F(6), "completion"),
        ]

    def test_merge_row_lists_signalled_jobs(self):
        # the merge row names every unrated job at the shared level; job 1
        # signalled at 4 and still joins, then switches mode in the same instant
        trace, log = simulate(corpus_instance(51), PolicyKind.ALPHA)
        assert trace.emissions[1] == 4
        rows = log.csv_rows()
        at = rows.index("11/2,merge,1;2")
        assert rows[at + 1] == "11/2,mode-switch,1"

    def test_horizon_truncates(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF, horizon=F(3))
        assert trace.makespan == 3
        assert not trace.complete
        assert trace.elapsed_work(1, 3) == F(3, 2)

    @pytest.mark.parametrize("policy", ["setf", decide, None])
    def test_policy_must_be_a_policy_kind(self, pair_instance, policy):
        trace, _ = simulate(pair_instance, PolicyKind.SETF)
        message = rf"^simulation needs a PolicyKind, got {re.escape(repr(policy))}$"
        with pytest.raises(ModelError, match=message):
            simulate(pair_instance, policy)
        with pytest.raises(ModelError, match=message):
            replay_check(trace, pair_instance, policy)

    def test_negative_horizon_rejected_before_any_work(self, pair_instance):
        with pytest.raises(ModelError, match=r"^horizon -1 is negative$"):
            SimState(pair_instance, PolicyKind.SETF, horizon=-1)
        trace, _ = simulate(pair_instance, PolicyKind.SETF, horizon=0)
        assert trace.makespan == 0 and trace.segments == ()


class TestNextEvent:
    def test_future_arrival_only(self):
        inst = Instance((Job(1, 5, 1),), F(1, 2))
        state = SimState(inst, PolicyKind.ALPHA)
        state.apply_instant_events()
        state.make_decision()
        assert state.next_event() == (F(5), ("arrival",))

    def test_joint_emission_of_shared_pair(self, pair_instance):
        state = SimState(pair_instance, PolicyKind.ALPHA)
        state.apply_instant_events()
        state.make_decision()
        assert state.next_event() == (F(2), ("emission",))

    def test_merge_when_shared_set_catches_up(self):
        inst = Instance((Job(1, 0, 10), Job(2, 0, 10), Job(3, 0, 10)), F(1))
        state = SimState(inst, PolicyKind.SETF)
        state.apply_instant_events()
        state.progress[3] = F(1)
        state.make_decision()
        time, kinds = state.next_event()
        assert time == F(2) and "merge" in kinds

    def test_threshold_crossing_reported_as_mode_switch(self):
        # signalled job remaining 2 waits until shared progress reaches 2
        inst = Instance((Job(1, 0, 4), Job(2, 0, 8)), F(1, 2))
        state = SimState(inst, PolicyKind.ALPHA)
        state.apply_instant_events()
        state.progress[1] = F(2)
        state.signal[1] = F(0)
        state.make_decision()
        assert state.decision.branch == "setf"
        time, kinds = state.next_event()
        assert time == F(2) and "mode-switch" in kinds


class TestDeterminismAndReplay:
    def test_identical_event_logs(self, worked_example):
        _, log1 = simulate(worked_example, PolicyKind.ALPHA)
        _, log2 = simulate(worked_example, PolicyKind.ALPHA)
        assert log1 == log2

    def test_replay_check_true(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert replay_check(trace, worked_example, PolicyKind.ALPHA)

    def test_replay_detects_perturbation(self, pair_instance):
        trace, _ = simulate(pair_instance, PolicyKind.SETF)
        tampered = ScheduleTrace(
            trace.instance,
            [ExecutionSegment(0, 4, ((1, F(1, 2)), (2, F(1, 4))))],
        )
        assert not replay_check(tampered, pair_instance, PolicyKind.SETF)

    def test_golden_adaptive_phase_instance(self):
        golden = json.loads((DATA / "golden_lb2_a12_k3.json").read_text())
        inst, _ = gen_det_lb2(F(1, 2), 3)
        trace, log = simulate(inst, PolicyKind.ALPHA)
        assert trace.canonical_dict() == golden["trace"]
        assert log.csv_rows() == golden["events"]


@pytest.fixture
def decided_views(monkeypatch):
    """Spy on the engine's decisions: each view's time and jobs, read
    inside the decision, in the order the engine asked."""
    seen = []

    def spy(view):
        seen.append((view.now, view.jobs))
        return policies.decide(view)

    monkeypatch.setattr(engine, "decide", spy)
    return seen


def run_stopping_at_emissions(inst, kind):
    """A run of a rule that reads no signal, made to stop and decide again
    at every emission as a signal-reading rule does."""
    state = SimState(inst, kind)
    state.stops_at_emissions = True
    return state.run()


class TestPolicyProtocol:
    """The engine's contract with the rule: it asks ``decide(view)``
    through its module global, and reads the kind's ``reads_signals`` once
    per run."""

    @pytest.mark.parametrize("seed", range(60))
    def test_custom_setf_equals_builtin(self, seed, decided_views):
        # SETF stopping at every emission, each decision also seen by the
        # spy, writes the bytes of SETF logging its emissions in passing
        inst = corpus_instance(seed)
        custom, custom_log = run_stopping_at_emissions(inst, PolicyKind.SETF)
        custom_stops = len(decided_views)
        decided_views.clear()
        builtin, builtin_log = simulate(inst, PolicyKind.SETF)
        assert custom.canonical_bytes() == builtin.canonical_bytes()
        assert custom_log.csv_rows() == builtin_log.csv_rows()
        emissions = {e.time for e in custom_log if e.kind == "emission"}
        emission_only = emissions - {e.time for e in custom_log if e.kind != "emission"}
        assert custom_stops == len(decided_views) + len(emission_only)


class TestInformationHiding:
    def test_unsignalled_jobs_hide_remaining(self, worked_example, decided_views):
        # the fused rule sees a job signalled from its signal point on; SETF
        # sees no job signalled
        for kind in (PolicyKind.ALPHA, PolicyKind.SETF):
            decided_views.clear()
            simulate(worked_example, kind)
            assert decided_views
            for _, jobs in decided_views:
                for entry in jobs:
                    p = worked_example.job(entry.job_id).proc
                    if kind is PolicyKind.SETF or entry.elapsed < worked_example.alpha * p:
                        assert not entry.emitted
                        assert entry.remaining is None
                        assert entry.signal_time is None
                    else:
                        assert entry.emitted
                        assert entry.remaining == p - entry.elapsed

    def test_deferred_jobs_never_signalled(self, decided_views):
        script = AdversaryScript(
            (Trigger("c", F(2), ProgressScaledRule((1,), 2, 1)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        for kind in (PolicyKind.ALPHA, PolicyKind.SETF):
            simulate(inst, kind)
        assert any(now < 2 for now, _ in decided_views)
        for now, jobs in decided_views:
            for entry in jobs:
                if now < 2:
                    assert not entry.emitted and entry.remaining is None


class TestAdversaryExecution:
    def test_commit_resolves_and_schedule_finishes(self):
        script = AdversaryScript(
            (Trigger("c", F(2), ProgressScaledRule((1,), 2, 1)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        trace, log = simulate(inst, PolicyKind.ALPHA)
        # observed progress 2 at the trigger: p = 2*2 + 1 = 5
        assert trace.instance.job(1).proc == 5
        assert trace.completions == {1: F(5)}
        assert any(e.kind == "adversary-commit" for e in log)

    def test_illegal_commit_rejected(self):
        # progress 2 at fire time but alpha * p = 3/4 < 2
        script = AdversaryScript(
            (Trigger("c", F(2), ProgressScaledRule((1,), 0, F(3, 2))),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(CommitmentError, match="inconsistent commitment"):
            simulate(inst, PolicyKind.ALPHA)

    def test_commit_at_signal_boundary_emits_instantly(self):
        # alpha * p equals observed progress exactly: legal, signals at once
        script = AdversaryScript(
            (Trigger("c", F(2), ProgressScaledRule((1,), 2, 0)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        trace, log = simulate(inst, PolicyKind.ALPHA)
        assert trace.emissions[1] == 2
        times = [e.time for e in log if e.kind == "emission"]
        assert times == [F(2)]

    def test_unresolved_at_horizon_errors(self):
        script = AdversaryScript(
            (Trigger("c", F(10), ProgressScaledRule((1,), 2, 1)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(EngineError, match="unresolved deferred"):
            simulate(inst, PolicyKind.ALPHA, horizon=F(5))

    def test_srpt_on_deferred_instance_errors(self):
        script = AdversaryScript(
            (Trigger("c", F(2), ProgressScaledRule((1,), 2, 1)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(EngineError, match=r"^job 1: SRPT's order needs a committed processing time$"):
            simulate(inst, PolicyKind.SRPT)


class TestGuards:
    """A guard that input can trip raises ``EngineError``; a broken engine
    lemma raises ``RuntimeError``, which is a bug and not bad input."""

    def test_event_cap_is_diagnostic(self, worked_example):
        state = SimState(worked_example, PolicyKind.ALPHA)
        state._event_cap = 1
        with pytest.raises(EngineError, match="runaway event loop"):
            state.run()

    def test_emission_overshoot_is_an_engine_error(self, worked_example):
        # job 1 (p = 4) holds progress past alpha * p = 2 without having
        # signalled: the event machinery skipped its emission
        state = SimState(worked_example, PolicyKind.ALPHA)
        state.apply_instant_events()
        state.progress[1] = F(3)
        with pytest.raises(RuntimeError, match="passed its signal point"):
            state.apply_instant_events()

    def test_emission_overshoot_between_stops_is_an_engine_error(self):
        # SRPT logs an emission in passing only if it falls inside the
        # segment; job 1 (p = 4) already holds progress past alpha * p = 2,
        # so the arrival of job 2 at 1/2 reports it
        inst = Instance((Job(1, 0, 4), Job(2, F(1, 2), 10)), F(1, 2))
        state = SimState(inst, PolicyKind.SRPT)
        state.apply_instant_events()
        state.make_decision()
        state.progress[1] = F(3)
        time, kinds = state.next_event()
        state._advance(time)
        assert [e.kind for e in state.log] == ["arrival"]
        with pytest.raises(RuntimeError, match="passed its signal point"):
            state.apply_instant_events(kinds)

    def test_crossed_threshold_while_sharing_is_an_engine_error(self, worked_example):
        # job 2 signalled with 1/2 left, job 1 shared at progress 1: the fused
        # rule's threshold alpha / (1 - alpha) * 1/2 lies below the level
        state = SimState(worked_example, PolicyKind.ALPHA)
        state.apply_instant_events()
        state.progress.update({1: F(1), 2: F(3, 2)})
        state.signal[2] = F(0)
        state.decision = RateDecision(((1, F(1)),), "setf")
        with pytest.raises(RuntimeError, match="threshold already crossed"):
            state.next_event()

    def test_duplicate_rates_rejected_before_any_progress(self, worked_example, monkeypatch):
        # a decision rating job 1 twice at 1/2 passes the per-rate checks; it
        # must fail as the segment it would build does, before it runs
        twice = RateDecision(((1, F(1, 2)), (1, F(1, 2))), "setf")
        monkeypatch.setattr(engine, "decide", lambda view: twice)
        state = SimState(worked_example, PolicyKind.SETF)
        state.apply_instant_events()
        with pytest.raises(RuntimeError, match="duplicate job in segment rates"):
            state.make_decision()
        assert state.progress[1] == 0

    @pytest.mark.parametrize(
        "rates, message",
        [
            (((9, F(1)),), "policy rated job 9 which is not alive"),
            (((1, F(0)),), "policy rated job 1 at nonpositive rate"),
            (((1, F(1)), (2, F(1, 2))), "policy rates exceed unit speed"),
            (((1, F(1)),), "simulation stalled with alive jobs"),
        ],
    )
    def test_custom_decision_guards(self, worked_example, monkeypatch, rates, message):
        # the guards reject a bad decision before the next event is sought; a
        # valid decision always has a next event, so with none found the run
        # reports the broken lemma instead of ending with jobs alive
        monkeypatch.setattr(engine, "decide", lambda view: RateDecision(rates, "custom"))
        monkeypatch.setattr(SimState, "next_event", lambda state: None)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            simulate(worked_example, PolicyKind.ALPHA)

    @pytest.mark.parametrize("layout", ["shared", "distinct", "split"])
    def test_a_shared_rate_counts_once_per_job(self, monkeypatch, layout):
        # one Rat(1, 2) object rating three jobs totals 3/2, as three
        # objects do, and as one object rating jobs 1 and 3 around job 2's
        half = Rat(1, 2)
        second = {"shared": half, "distinct": Rat(1, 2), "split": Rat(1, 4)}[layout]
        rates = ((1, half), (2, second), (3, half if layout != "distinct" else Rat(1, 2)))
        monkeypatch.setattr(engine, "decide", lambda view: RateDecision(rates, "custom"))
        inst = Instance(tuple(Job(j, 0, 2) for j in (1, 2, 3)), F(1, 2))
        with pytest.raises(RuntimeError, match="^policy rates exceed unit speed$"):
            simulate(inst, PolicyKind.ALPHA)

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_shared_nonpositive_rate_names_its_first_job(self, monkeypatch, shared):
        zero = Rat(0)
        rates = ((1, Rat(1, 4)), (2, zero), (3, zero if shared else Rat(0)))
        monkeypatch.setattr(engine, "decide", lambda view: RateDecision(rates, "custom"))
        inst = Instance(tuple(Job(j, 0, 2) for j in (1, 2, 3)), F(1, 2))
        with pytest.raises(RuntimeError, match="^policy rated job 2 at nonpositive rate$"):
            simulate(inst, PolicyKind.ALPHA)

    def test_a_zero_wait_is_an_engine_error(self, worked_example, monkeypatch):
        # next_event returns only positive waits; a stop at the current
        # time would repeat it without advancing
        monkeypatch.setattr(SimState, "next_event", lambda state: (state.now, ("completion",)))
        with pytest.raises(RuntimeError, match="^zero wait at 0: the run would not advance$"):
            simulate(worked_example, PolicyKind.ALPHA)

    def test_builtin_policy_may_not_idle(self, worked_example, monkeypatch):
        monkeypatch.setattr(engine, "decide", lambda view: RateDecision((), "idle"))
        with pytest.raises(RuntimeError, match="^built-in policy idled with alive jobs$"):
            simulate(worked_example, PolicyKind.ALPHA)

    def test_trigger_that_commits_nothing_stalls_the_run(self):
        class Withholding(ProgressScaledRule):
            def commit(self, observed):
                return {}

        script = AdversaryScript((Trigger("c", 1, Withholding((1,), 2, 1)),))
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(EngineError, match=r"^unresolved deferred processing time for jobs \[1\]$"):
            simulate(inst, PolicyKind.ALPHA)

    def test_feasibility_of_traces(self, worked_example):
        from alphasched.analysis import check_feasibility

        for kind in PolicyKind:
            trace, _ = simulate(worked_example, kind)
            assert check_feasibility(trace) == []


def logged_emissions(log):
    """Each emitted job's time from the log's emission rows, checking that
    the log runs in time order and that one row holds an instant's
    emissions, in id order."""
    times = [e.time for e in log]
    assert times == sorted(times)
    rows = [e for e in log if e.kind == "emission"]
    assert len({e.time for e in rows}) == len(rows)
    found = {}
    for e in rows:
        assert list(e.jobs) == sorted(e.jobs) and not found.keys() & set(e.jobs)
        found.update(dict.fromkeys(e.jobs, e.time))
    return found


def assert_emissions_match(trace, log):
    """The emission rows equal the trace's emissions, which it derives from
    its segments alone.  At alpha = 1 a signal coincides with completion,
    and the log has no emission rows."""
    logged = logged_emissions(log)
    if trace.instance.alpha == 1:
        assert logged == {}
    else:
        assert logged == trace.emissions


class TestEmissionsInPassing:
    """SRPT and SETF read no signal, so they do not stop at emissions: each
    one before a stop is logged in passing, at its exact time."""

    def test_corpus(self):
        for seed in range(1, CORPUS_SIZE + 1):
            inst = simulate(corpus_instance(seed), PolicyKind.ALPHA)[0].instance
            for kind in (PolicyKind.SRPT, PolicyKind.SETF):
                assert_emissions_match(*simulate(inst, kind))

    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(3, 4)])
    def test_lower_bound_families(self, alpha):
        for gen in (gen_det_lb1, gen_det_lb2):
            for k in range(2, 6):
                inst, t = gen(alpha, k)
                for live in (inst, append_dos_tail(inst, t, 50)):
                    # SETF on the live instance, so triggers commit mid-run
                    trace, log = simulate(live, PolicyKind.SETF)
                    assert any(e.kind == "adversary-commit" for e in log)
                    assert_emissions_match(trace, log)
                    assert_emissions_match(*simulate(trace.instance, PolicyKind.SRPT))

    def test_alpha_one_logs_no_emission(self, pair_instance):
        inst = Instance(pair_instance.jobs, F(1))
        for kind in (PolicyKind.SRPT, PolicyKind.SETF):
            trace, log = simulate(inst, kind)
            assert trace.emissions == trace.completions
            assert_emissions_match(trace, log)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(json_instances())
    def test_json_instances_under_setf(self, inst):
        assert_emissions_match(*simulate(inst, PolicyKind.SETF))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(json_instances(agreeing=False))
    def test_any_script_under_setf(self, inst):
        try:
            run = simulate(inst, PolicyKind.SETF)
        except CommitmentError:
            return  # the script contradicts the schedule: no trace to compare
        assert_emissions_match(*run)

    def test_horizon_cuts(self):
        # cuts at every event and emission time and at their midpoints; a
        # cut at an emission between stops must log that emission itself
        cut_at_passing_emission = 0
        for seed in range(1, 41):
            inst = corpus_instance(seed)
            for kind in (PolicyKind.SRPT, PolicyKind.SETF):
                trace, log = simulate(inst, kind)
                times = sorted({e.time for e in log} | set(trace.emissions.values()))
                stops = {e.time for e in log if e.kind != "emission"}
                cut_at_passing_emission += len(set(trace.emissions.values()) - stops)
                cuts = set(times) | {(a + b) / 2 for a, b in zip(times, times[1:])}
                for horizon in sorted(cuts):
                    assert_emissions_match(*simulate(inst, kind, horizon=horizon))
        assert cut_at_passing_emission > 0


class TestSignalReadingScope:
    def test_only_the_fused_rule_reads_signals(self):
        assert [k.reads_signals for k in PolicyKind] == [True, False, False]

    def test_custom_srpt_still_stops_at_each_emission(self, decided_views):
        # SRPT made to stop at every emission, as a signal-reading rule
        # does, decides there; SRPT itself is not asked then, and both runs
        # write the same bytes
        skipped = 0
        for seed in range(1, 61):
            inst = corpus_instance(seed)
            decided_views.clear()
            trace, log = run_stopping_at_emissions(inst, PolicyKind.SRPT)
            times = [now for now, _ in decided_views]
            # SRPT's views mark every job signalled, at one time, whether
            # it has emitted or not
            assert all(j.emitted and j.signal_time == 0 for _, jobs in decided_views for j in jobs)
            emissions = [(e.time, e.jobs) for e in log if e.kind == "emission"]
            for t, _ in emissions:
                assert t in times
            stops = {e.time for e in log if e.kind != "emission"}
            emission_only = {t for t, _ in emissions} - stops
            decided_views.clear()
            builtin_trace, builtin_log = simulate(inst, PolicyKind.SRPT)
            asked = [now for now, _ in decided_views]
            assert not emission_only & set(asked)
            assert len(asked) == len(times) - len(emission_only)
            assert builtin_trace.csv_rows() == trace.csv_rows()
            assert builtin_log.csv_rows() == log.csv_rows()
            skipped += len(emission_only)
        assert skipped > 0


def full_view(state):
    """The policy view rebuilt from scratch out of the state's progress,
    processing times and signals: alive means released and not finished.
    Under SRPT, and the fused rule at alpha = 0, every job is marked
    signalled at time 0; under SETF none is; otherwise emitted means
    committed with progress at least alpha * p, since every emission due is
    applied before a view is built."""
    srpt_order = state.policy is PolicyKind.SRPT or (state.policy is PolicyKind.ALPHA and state.alpha == 0)
    entries = []
    for job in sorted(state.instance.jobs, key=lambda job: job.id):
        j, p = job.id, state.proc[job.id]
        if job.release > state.now or (p is not None and state.progress[j] == p):
            continue
        if srpt_order:
            emitted, signal_time = True, F(0)
        elif state.policy is PolicyKind.SETF:
            emitted, signal_time = False, None
        else:
            emitted = p is not None and state.progress[j] >= state.alpha * p
            signal_time = state.signal.get(j)
        entries.append(ViewJob(
            job_id=j,
            elapsed=state.progress[j],
            emitted=emitted,
            remaining=p - state.progress[j] if emitted else None,
            signal_time=signal_time,
        ))
    return PolicyView(state.now, state.alpha, tuple(entries))


def exact_commit_lb1(alpha, k):
    """gen_det_lb1 with p = y / alpha: every commitment lands exactly on the
    signal point alpha * p, so each committed job emits in the same instant."""
    inst, t = gen_det_lb1(alpha, k)
    ids = tuple(j.id for j in inst.jobs)
    rule = ProgressScaledRule(ids, 1 / alpha, 0)
    return Instance(inst.jobs, alpha, AdversaryScript((Trigger("commit", t, rule),))), t


def waiting_commit_instance(alpha):
    """Job 1 runs alone until job 2 arrives at 1 and takes the machine; at
    3/2 job 1, unrated, is committed exactly at its signal point and emits
    while it waits."""
    rule = ProgressScaledRule((1,), 1 / alpha, 0)
    script = AdversaryScript((Trigger("c", F(3, 2), rule),))
    return Instance((Job(1, 0, Deferred("c")), Job(2, 1, 10)), alpha, script)


def deferred_runs(inst):
    """The fused rule and SETF on a deferred instance, SRPT on its
    realization."""
    yield inst, PolicyKind.ALPHA
    yield inst, PolicyKind.SETF
    yield simulate(inst, PolicyKind.ALPHA)[0].instance, PolicyKind.SRPT


def view_reference_runs():
    """(instance, policy) pairs whose every view is checked against full_view."""
    for seed in range(1, 101):
        for kind in PolicyKind:
            yield corpus_instance(seed), kind
        # the fused rule at its endpoints, where it decides as SRPT and SETF
        for alpha in (F(0), F(1)):
            yield corpus_instance(seed).with_alpha(alpha), PolicyKind.ALPHA
    for alpha in (F(1, 2), F(2, 3), F(3, 4)):
        for gen in (gen_det_lb1, gen_det_lb2, exact_commit_lb1):
            for k in (2, 3):
                inst, t = gen(alpha, k)
                yield from deferred_runs(append_dos_tail(inst, t, 10))
        yield from deferred_runs(waiting_commit_instance(alpha))


def minima(view):
    """The minima every rule decides from: the least unsignalled progress,
    the unsignalled jobs there and the best signalled job."""
    least = view.least_unsignalled
    return (least, least is not None and view.unsignalled_at(least), view.best_signalled)


class TestViewReference:
    def test_every_view_equals_a_full_rebuild(self, monkeypatch):
        original = SimState.build_view
        calls = []
        sizes = [0, 0]  # candidates read, jobs in view

        def checked(state):
            view = original(state)
            assert view == full_view(state), f"view at {state.now} differs from a full rebuild"
            # the engine's minima against one scan of the rebuilt view
            reference = minima(full_view(state))
            assert minima(view) == reference, f"minima at {state.now}"
            ids = [j.job_id for j in view.candidates()]
            assert ids == sorted(set(ids)), f"candidates at {state.now} not in strict id order"
            sizes[0] += len(ids)
            sizes[1] += len(view.jobs)
            calls.append(state.now)
            return view

        monkeypatch.setattr(SimState, "build_view", checked)
        runs = 0
        for inst, policy in view_reference_runs():
            simulate(inst, policy)
            runs += 1
        assert runs == 300 + 200 + 54 + 9
        assert len(calls) > 10 * runs
        # the engine's candidates are its rankings' fronts, not every job
        assert sizes[0] < sizes[1]


class TestRankingsFollowTheRule:
    def test_no_rule_keys_a_ranking_it_does_not_read(self, monkeypatch):
        # SETF marks no job signalled, so _unsignalled holds every unrated
        # job; SRPT marks every job, and reads _remaining only
        keyed = set()  # the rankings of the current run given a key
        original = _Ranking.put

        def spy(ranking, job, key):
            if key is not None:
                keyed.add(id(ranking))
            original(ranking, job, key)

        monkeypatch.setattr(_Ranking, "put", spy)
        unread = {PolicyKind.SETF: ("_signalled", "_remaining"), PolicyKind.SRPT: ("_unsignalled", "_signalled")}
        read = {PolicyKind.SETF: "_unsignalled", PolicyKind.SRPT: "_remaining"}
        used = Counter()
        for inst, policy in view_reference_runs():
            keyed.clear()
            state = SimState(inst, policy)
            state.run()
            for name in unread.get(policy, ()):
                assert id(getattr(state, name)) not in keyed, f"{policy.name} keyed {name}"
            for name in ("_unsignalled", "_signalled", "_remaining"):
                used[policy, name] += id(getattr(state, name)) in keyed
        # the spy sees the rankings each rule does read, and the fused
        # rule's signalled one
        assert all(used[policy, name] > 0 for policy, name in read.items())
        assert used[PolicyKind.ALPHA, "_signalled"] > 0


class TestTieBreaksThroughSimulate:
    """Ties pinned through the engine, not only through hand-built views:
    jobs 1 and 2 signal together at 1, and job 3 signals at 3/2 with the
    same remaining time, so the latest signal keeps the machine in a
    three-way tie, then the lower id goes first."""

    INSTANCE = Instance((Job(1, 0, 1), Job(2, 0, 1), Job(3, 1, 1)), F(1, 2))

    def test_fused_rule(self):
        trace, _ = simulate(self.INSTANCE, PolicyKind.ALPHA)
        assert trace.segments == (
            ExecutionSegment(0, 1, ((1, F(1, 2)), (2, F(1, 2)))),
            ExecutionSegment(1, 2, ((3, F(1)),)),
            ExecutionSegment(2, F(5, 2), ((1, F(1)),)),
            ExecutionSegment(F(5, 2), 3, ((2, F(1)),)),
        )

    def test_srpt(self):
        trace, _ = simulate(self.INSTANCE, PolicyKind.SRPT)
        assert trace.segments == tuple(ExecutionSegment(j - 1, j, ((j, F(1)),)) for j in (1, 2, 3))

    def test_alpha_zero_needs_every_remaining_time(self):
        # at alpha = 0 the fused rule decides in SRPT's order, which needs
        # job 1's remaining time before its commitment at 2
        script = AdversaryScript((Trigger("c", 2, ProgressScaledRule((1,), 2, 1)),))
        inst = Instance((Job(1, 0, Deferred("c")), Job(2, 0, 3)), 0, script)
        with pytest.raises(EngineError) as err:
            simulate(inst, PolicyKind.ALPHA)
        assert str(err.value) == "job 1: SRPT's order needs a committed processing time"


# few distinct values, so keys tie often
tied_rationals = st.builds(F, st.integers(0, 4), st.integers(1, 3))


@st.composite
def ranking_puts(draw):
    """put(job, key | None) calls over one kind of key: rationals, or
    pairs of them as the fused rule's remaining-time ranking uses."""
    keys = draw(st.sampled_from([tied_rationals, st.tuples(tied_rationals, tied_rationals)]))
    return draw(st.lists(st.tuples(st.integers(0, 7), st.none() | keys), max_size=60))


class TestRanking:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(ranking_puts())
    def test_reads_match_a_sorted_list(self, puts):
        ranking, keys = _Ranking(), {}
        probes = {key for _, key in puts if key is not None}
        for job, key in puts:
            ranking.put(job, key)
            if key is None:
                keys.pop(job, None)
            else:
                keys[job] = key
            reference = sorted((key, job) for job, key in keys.items())
            front = reference[0] if reference else (None, None)
            assert (ranking.least(), ranking.first()) == front
            for level in probes:
                above = [k for k, _ in reference if k > level]
                assert ranking.least_above(level) == (above[0] if above else None)
                assert ranking.at(level) == [j for k, j in reference if k == level]
