import copy
import json
import operator
import pickle
import re
import sys
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from alphasched.engine import simulate
from alphasched.model import (
    AdversaryScript,
    Deferred,
    ExecutionSegment,
    Instance,
    Job,
    ModelError,
    ProgressScaledRule,
    RankPairRule,
    ScheduleTrace,
    TimePoint,
    Trigger,
    UnknownJobError,
    UnresolvedProcError,
    instance_from_json,
    instance_to_json,
)
from alphasched.policies import PolicyKind
from alphasched.rational import Rat, format_rat, over_common_denominator, parse_rat
from conftest import json_instances, point_at


def run(instance, kind=PolicyKind.SETF):
    trace, _ = simulate(instance, kind)
    return trace


# small and wider-than-64-bit integers, zero and negatives included
_INTS = st.one_of(st.integers(-12, 12), st.integers(-(2**100), 2**100))
_PAIRS = st.tuples(_INTS, st.one_of(st.integers(1, 12), st.integers(1, 2**100)))
_OPERANDS = st.one_of(_PAIRS.map(lambda p: Rat(*p)), _PAIRS.map(lambda p: F(*p)), _INTS)
_ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
_COMPARISONS = (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)


def _same_value(got, want):
    return (got.numerator, got.denominator, hash(got), str(got)) == (
        want.numerator, want.denominator, hash(want), str(want)
    )


class TestRational:
    def test_parse_forms(self):
        assert parse_rat("3/4") == F(3, 4)
        assert parse_rat("5") == F(5)
        assert parse_rat(7) == F(7)
        assert all(type(parse_rat(v)) is Rat for v in ("3/4", " -6/4 ", "5", 7))
        assert parse_rat(F(3, 4)) == F(3, 4) and isinstance(parse_rat(F(3, 4)), F)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_PAIRS, _OPERANDS)
    def test_rat_matches_fraction(self, pair, other):
        x = Rat(*pair)
        assert type(x) is Rat and _same_value(x, F(*pair))
        for a, b in ((x, other), (other, x)):
            fa, fb = F(a), F(b)
            for op in _ARITHMETIC:
                if op is operator.truediv and fb == 0:
                    for operands in ((a, b), (fa, fb)):
                        with pytest.raises(ZeroDivisionError):
                            op(*operands)
                    continue
                got = op(a, b)
                assert type(got) is Rat and _same_value(got, op(fa, fb))
            for op in _COMPARISONS:
                assert op(a, b) is op(fa, fb)
        for op in (operator.neg, abs):
            assert type(op(x)) is Rat and _same_value(op(x), op(F(*pair)))
        assert x in {F(*pair)} and F(*pair) in {x}

    @pytest.mark.parametrize("op", _ARITHMETIC + _COMPARISONS[1:])
    @pytest.mark.parametrize("other", [0.5, 0.75, 2 + 1j], ids=["float", "equal-float", "complex"])
    def test_fallbacks_match_fraction(self, op, other):
        # an operand Rat has no fast path for goes to Fraction's own method;
        # an equal float tells <= from <, and an unequal one a - b from b - a
        x, fx = Rat(3, 4), F(3, 4)
        for operands, reference in (((x, other), (fx, other)), ((other, x), (other, fx))):
            try:
                want = op(*reference)
            except TypeError:
                with pytest.raises(TypeError):
                    op(*operands)
                continue
            got = op(*operands)
            assert type(got) is type(want) and got == want
        for operands in ((x, "3/4"), ("3/4", x)):
            with pytest.raises(TypeError):
                op(*operands)

    def test_hash_matches_fraction(self):
        modulus = sys.hash_info.modulus
        values = [(0, 1), (1, 1), (-1, 1), (-2, 1), (7, 1), (-(2**70), 1), (2**61 - 1, 1)]
        values += [(1, 3), (-1, 3), (-5, 7), (2**70 + 1, 2**65), (1, modulus), (-3, modulus)]
        values += [(1, 2 * modulus), (-7, modulus**2)]
        for pair in values:
            assert hash(Rat(*pair)) == hash(F(*pair)), pair
        assert hash(Rat(1, modulus)) == sys.hash_info.inf
        assert hash(Rat(-1, 1)) == hash(F(-1)) == -2

    def test_int_operands_above_64_bits_keep_normal_form(self):
        big = 2**64 + 3
        for x in (Rat(5, 6), Rat(-(2**70) - 1, 2**66), Rat(big, 2**65)):
            for b in (big, -big, 2**100):
                for got, want in (
                    (x + b, F(x) + b), (x - b, F(x) - b), (b + x, b + F(x)), (b - x, b - F(x))
                ):
                    assert type(got) is Rat and _same_value(got, want)

    def test_eq_against_float_and_decimal(self):
        for x in (Rat(1, 2), Rat(-3, 4), Rat(2), Rat(1, 3), Rat(0)):
            for other in (0.5, -0.75, 2.0, 1 / 3, 0.0, Decimal("0.5"), Decimal("2"), Decimal("-0.75")):
                assert (x == other) is (F(x) == other)
                assert (other == x) is (other == F(x))
                assert (x != other) is (F(x) != other)

    def test_division_sign_and_zero(self):
        for x in (Rat(3, 4), Rat(-3, 4), Rat(0), Rat(5)):
            for divisor in (Rat(-2, 3), -2, Rat(2, 3), 2, F(-2, 3)):
                assert _same_value(x / divisor, F(x) / F(divisor))
                if x != 0:
                    assert _same_value(divisor / x, F(divisor) / F(x))
            for zero in (Rat(0), 0, F(0)):
                with pytest.raises(ZeroDivisionError):
                    x / zero
        with pytest.raises(ZeroDivisionError):
            1 / Rat(0)
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / Rat(0)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_OPERANDS)
    def test_format_matches_fraction(self, x):
        assert format_rat(x) == f"{F(x).numerator}/{F(x).denominator}"

    def test_pickle_and_copy_keep_the_type(self):
        for x in (Rat(-3, 4), Rat(2**70 + 1, 3), Rat(0)):
            for got in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert type(got) is Rat and _same_value(got, x)

    def test_private_slots_are_fractions(self):
        # the CPython detail rational.py builds on: Fraction keeps its value
        # in these two slots, and Rat adds none
        assert {"_numerator", "_denominator"} <= set(F.__slots__)
        assert Rat.__slots__ == ()

    def test_rat_construction(self):
        assert _same_value(Rat(6, -4), F(-3, 2)) and type(Rat(6, -4)) is Rat
        third = Rat(1, 3)
        assert Rat(third) is third and type(Rat(F(1, 3))) is Rat and type(Rat(3)) is Rat
        assert _same_value(Rat("2/6"), F(1, 3))
        for make in (F, Rat):
            with pytest.raises(ZeroDivisionError):
                make(1, 0)

    def test_rat_defers_other_operand_types(self):
        assert Rat(1, 2) < 0.75
        assert Rat(1, 2) + 0.5 == 1.0 and type(Rat(1, 2) + 0.5) is float
        assert Rat(1, 2) == Decimal("0.5")
        assert repr(Rat(1, 2)) == "Rat(1, 2)"

    def test_format_always_carries_denominator(self):
        assert format_rat(F(8)) == "8/1"
        assert format_rat(F(1, 2)) == "1/2"

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            parse_rat(0.5)

    @pytest.mark.parametrize("value", [0.1, True, Decimal("0.5"), None])
    def test_rat_takes_only_exact_types(self, value):
        with pytest.raises(TypeError, match=re.escape(f"not an exact rational: {value!r}")):
            Rat(value)

    @pytest.mark.parametrize("text", [" ٣ ", "1e3", "0.5", "1_000", "+3"])
    def test_rat_reads_text_in_the_wire_format_only(self, text):
        assert Rat(" -2/6 ") == F(-1, 3) and type(Rat("5")) is Rat
        with pytest.raises(ValueError, match=re.escape(f"not a rational: {text!r}")):
            Rat(text)

    def test_rat_reads_any_fraction_subclass(self):
        class Half(F):
            pass

        assert (type(Rat(Half(2, 4))), Rat(Half(2, 4))) == (Rat, F(1, 2))

    @pytest.mark.parametrize("pair", [(True, 2), (1.0, 2), (1, 2.0), (F(1, 2), 3)])
    def test_rat_ratio_of_two_ints_only(self, pair):
        with pytest.raises(TypeError, match="not a ratio of two ints"):
            Rat(*pair)

    def test_model_takes_no_inexact_values(self, pair_instance):
        for value in (0.1, True):
            with pytest.raises(TypeError):
                Job(1, value, 2)
        with pytest.raises(ValueError):
            Job(1, " ٣ ", 2)
        with pytest.raises(TypeError):
            simulate(pair_instance, PolicyKind.ALPHA, horizon=0.3)

    @pytest.mark.parametrize(
        "values, d",
        [
            ([], 1),
            ([3, 0, -7], 1),
            ([Rat(-1, 2), F(1, 3), Rat(5, 4), F(-7, 6), 2], 12),
            ([Rat(-3, 4), Rat(1, 4), -1], 4),
            ([F(1, 2**70), Rat(1, 3 * 2**69), 5], 3 * 2**70),
        ],
    )
    def test_common_denominator_scales_to_ints(self, values, d):
        got, scaled = over_common_denominator(values)
        assert got == d
        assert all(type(k) is int for k in scaled)
        assert [Rat(k, d) for k in scaled] == values

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(_OPERANDS, max_size=12))
    def test_common_denominator_is_the_least(self, values):
        d, scaled = over_common_denominator(values)
        least = 1
        for v in values:
            q = F(v).denominator
            least = least * q // gcd(least, q)
        assert d == least
        assert len(scaled) == len(values)
        assert all(type(k) is int and Rat(k, d) == v for k, v in zip(scaled, values))


class TestInstanceValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            Instance((Job(1, 0, 1), Job(1, 1, 1)), F(1, 2))

    def test_unsorted_jobs_rejected(self):
        with pytest.raises(ModelError):
            Instance((Job(1, 2, 1), Job(2, 0, 1)), F(1, 2))

    def test_nonpositive_proc_rejected(self):
        with pytest.raises(ModelError):
            Job(1, 0, 0)

    def test_alpha_range(self):
        with pytest.raises(ModelError):
            Instance((Job(1, 0, 1),), F(3, 2))

    def test_deferred_needs_trigger(self):
        with pytest.raises(ModelError):
            Instance((Job(1, 0, Deferred("nope")),), F(1, 2))

    def test_json_round_trip(self, pair_instance):
        blob = instance_to_json(pair_instance)
        assert instance_from_json(blob) == pair_instance

    @settings(max_examples=80, deadline=None)
    @given(json_instances(agreeing=False))
    def test_json_round_trip_bytes(self, inst):
        text = json.dumps(instance_to_json(inst), sort_keys=True)
        back = instance_from_json(json.loads(text))
        assert back == inst
        assert json.dumps(instance_to_json(back), sort_keys=True) == text

    @pytest.mark.parametrize(
        "obj, field",
        [
            ([], "instance: expected a JSON object"),
            ({"alpha": "1/2"}, "missing field 'jobs'"),
            ({"alpha": "1/2", "jobs": [{"id": "1", "release": 0, "proc": 1}]}, "jobs[0].id"),
            ({"alpha": "1/2", "jobs": [{"id": 1, "release": 0.5, "proc": 1}]}, "jobs[0].release"),
            ({"alpha": "1/0", "jobs": []}, "instance.alpha"),
            (
                {"alpha": "1/2", "jobs": [], "adversary": {"triggers": [{"id": "a", "fire_at": 1}]}},
                "adversary.triggers[0]: missing field 'rule'",
            ),
        ]
        # only null means no adversary; a falsy value of another shape is an error
        + [({"alpha": "1/2", "jobs": [], "adversary": v}, "adversary") for v in (False, 0, "", [], {})],
    )
    def test_json_errors_name_the_field(self, obj, field):
        with pytest.raises(ModelError, match=re.escape(field)):
            instance_from_json(obj)

    def test_rule_of_an_unknown_job_rejected(self):
        rule = ProgressScaledRule((1, 7), 2, 0)
        with pytest.raises(UnknownJobError):
            Instance(
                (Job(1, 0, Deferred("a")),), F(1, 2), AdversaryScript((Trigger("a", 1, rule),))
            )

    def test_rank_pair_rule_naming_a_job_twice_rejected(self):
        # commit would return {1: low} and silently drop the long commitment
        with pytest.raises(ModelError, match="names a job twice"):
            RankPairRule((1, 1), 4, 1)

    @pytest.mark.parametrize("progress", [(1, 3), (2, 2), (3, 1)])
    def test_rank_pair_rule_gives_the_further_job_the_long_time(self, progress):
        # on a tie the lower id counts as further
        rule = RankPairRule((1, 2), 5, 3)
        further = 2 if progress[1] > progress[0] else 1
        assert rule.commit(dict(zip((1, 2), map(F, progress)))) == {further: 5, 3 - further: 3}

    def test_progress_scaled_rule_naming_a_job_twice_rejected(self):
        with pytest.raises(ModelError, match="names a job twice"):
            ProgressScaledRule((1, 1, 2), 2, 0)

    def test_rule_fields_normalised(self):
        rule = ProgressScaledRule([1, 2], 2, "1/4")
        assert rule.jobs == (1, 2)
        assert (type(rule.scale), type(rule.offset)) == (Rat, Rat) and rule.offset == F(1, 4)

    @pytest.mark.parametrize("kind", [["x"], {"a": 1}, 3, "nope"])
    def test_unknown_rule_kind_is_bad_input(self, kind):
        # a kind that is not a string is bad input, not a TypeError of a lookup
        rule = {"kind": kind, "jobs": [1], "scale": "1", "offset": "0"}
        obj = {
            "alpha": "1/2",
            "jobs": [{"id": 1, "release": "0", "proc": {"deferred": "a"}}],
            "adversary": {"triggers": [{"id": "a", "fire_at": "1", "rule": rule}]},
        }
        with pytest.raises(ModelError, match=re.escape(f"unknown commit rule kind {kind!r}")):
            instance_from_json(obj)

    def test_json_integer_shorthand(self):
        inst = instance_from_json(
            {"alpha": "1/2", "jobs": [{"id": 1, "release": 0, "proc": 3}]}
        )
        assert inst.jobs[0].proc == 3


class TestGuards:
    """The model's guards on values that reach it through the Python API."""

    @pytest.fixture
    def deferred_instance(self):
        script = AdversaryScript((Trigger("c", 5, ProgressScaledRule((2,), 2, 1)),))
        return Instance((Job(1, 0, 1), Job(2, 0, Deferred("c"))), F(1, 2), script)

    def test_unknown_job_id(self, pair_instance):
        with pytest.raises(UnknownJobError, match=r"^unknown job id 9$"):
            pair_instance.job(9)

    def test_unresolved_processing_time(self, deferred_instance):
        with pytest.raises(UnresolvedProcError, match=r"^job 2 has an unresolved processing time$"):
            deferred_instance.proc_of(2)

    def test_committed_job_not_committed_again(self, deferred_instance):
        with pytest.raises(ModelError, match=r"^job 1 is already committed$"):
            deferred_instance.with_committed({1: 3, 2: 3})

    @pytest.mark.parametrize("rate, value", [(1, F(1)), ("1/2", F(1, 2))])
    def test_segment_rate_converted_to_rat(self, rate, value):
        segment = ExecutionSegment(0, 1, ((1, rate),))
        assert segment.rates == ((1, value),) and type(segment.rates[0][1]) is Rat

    @pytest.mark.parametrize("job_id", [2.7, True, "2"])
    def test_segment_job_id_must_be_an_int(self, job_id):
        with pytest.raises(ModelError, match=re.escape(f"segment job id {job_id!r} is not an int")):
            ExecutionSegment(0, 1, ((job_id, F(1, 2)),))

    def test_horizon_before_the_last_segment(self, pair_instance):
        with pytest.raises(ModelError, match=r"^horizon precedes the last segment$"):
            ScheduleTrace(pair_instance, [ExecutionSegment(0, 2, ((1, F(1)),))], horizon=1)

    @pytest.mark.parametrize(
        "query, error, message",
        [
            (lambda trace: trace.elapsed_work(1, -1), ModelError, "time must be nonnegative"),
            (lambda trace: trace.interval_work(1, (2, 1)), ModelError, "bad interval [2, 1]"),
            (lambda trace: trace.busy_intervals(9), UnknownJobError, "unknown job id 9"),
        ],
    )
    def test_trace_queries(self, pair_instance, query, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            query(run(pair_instance))


class TestElapsedWork:
    def test_single_job_half_done(self):
        trace = run(Instance((Job(1, 0, 1),), F(1, 2)))
        assert trace.elapsed_work(1, F(1, 2)) == F(1, 2)

    def test_setf_pair_at_three(self, pair_instance):
        # even sharing: both at 3/2 after three time units
        trace = run(pair_instance)
        assert trace.elapsed_work(1, 3) == F(3, 2)
        assert trace.elapsed_work(2, 3) == F(3, 2)

    def test_zero_before_release(self):
        trace = run(Instance((Job(1, 2, 3),), F(1, 2)))
        assert trace.elapsed_work(1, 2) == 0
        assert trace.elapsed_work(1, 1) == 0

    def test_unknown_job(self, pair_instance):
        trace = run(pair_instance)
        with pytest.raises(UnknownJobError):
            trace.elapsed_work(9, 1)

    def test_equals_proc_at_completion(self, pair_instance):
        trace = run(pair_instance)
        for job in pair_instance.jobs:
            assert trace.elapsed_work(job.id, trace.completions[job.id]) == job.proc


class TestWorkAt:
    def test_column_is_computed_afresh(self, pair_instance):
        # no column is kept: a verifier's many check times would hold them all
        trace = run(pair_instance)
        column = trace.work_at(3)
        assert column == {1: F(3, 2), 2: F(3, 2)}
        assert trace.work_at(F(6, 2)) == column and trace.work_at(F(6, 2)) is not column

    def test_column_is_read_only(self, pair_instance):
        trace = run(pair_instance)
        with pytest.raises(TypeError):
            trace.work_at(3)[1] = F(0)
        assert trace.work_at(3)[1] == F(3, 2)

    def test_negative_time_rejected(self, pair_instance):
        trace = run(pair_instance)
        for _ in range(2):  # a rejected time is not kept either
            with pytest.raises(ModelError, match="nonnegative"):
                trace.work_at(-1)


class TestRemaining:
    def test_subtraction(self):
        trace = run(Instance((Job(1, 0, 5),), F(1, 2)))
        assert trace.remaining(1, 2) == 3

    def test_zero_after_completion(self, pair_instance):
        trace = run(pair_instance)
        assert trace.remaining(1, 10) == 0

    def test_worked_example_job2(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert trace.remaining(2, 2) == 1


class TestPartition:
    def test_empty_before_first_release(self):
        trace = run(Instance((Job(1, 3, 1),), F(1, 2)))
        part = trace.partition(1)
        assert not (part.alive | part.nonclairvoyant | part.clairvoyant)

    def test_single_job_before_signal(self):
        trace = run(Instance((Job(1, 0, 2),), F(1, 2)))
        part = trace.partition(F(1, 2))
        assert part.nonclairvoyant == {1} and not part.clairvoyant

    def test_worked_example_at_five_halves(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        part = trace.partition(F(5, 2))
        assert part.nonclairvoyant == {1}
        assert part.clairvoyant == {2}

    def test_signal_boundary_is_nonclairvoyant(self, pair_instance):
        # elapsed exactly alpha * p sits on the unsignalled side
        trace, _ = simulate(pair_instance, PolicyKind.ALPHA)
        part = trace.partition(2)
        assert part.nonclairvoyant == {1, 2}

    def test_disjoint_cover(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        for t in trace.event_times():
            part = trace.partition(t)
            assert part.nonclairvoyant | part.clairvoyant == part.alive
            assert not part.nonclairvoyant & part.clairvoyant
            assert part.alive == trace.alive_at(t)


class TestLifetime:
    def test_single_job_window(self):
        trace = run(Instance((Job(1, 1, 2),), F(1, 2)))
        assert trace.lifetime({1}, 10) == [(F(1), F(3))]

    def test_two_never_co_alive_jobs_give_two_intervals(self):
        inst = Instance((Job(1, 0, 1), Job(2, 5, 1)), F(1, 2))
        trace = run(inst)
        assert trace.lifetime({1, 2}, 10) == [(F(0), F(1)), (F(5), F(6))]

    def test_empty_set_rejected(self, pair_instance):
        trace = run(pair_instance)
        with pytest.raises(ModelError):
            trace.lifetime(set(), 1)

    def test_truncated_at_t(self, pair_instance):
        trace = run(pair_instance)
        assert trace.lifetime({1, 2}, 3) == [(F(0), F(3))]

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(json_instances())
    def test_ran_within_matches_the_busy_intervals(self, inst):
        # a job ran within [lo, hi] iff one of its busy intervals overlaps
        # it for a positive time, so a point interval holds no job
        trace = run(inst)
        times = sorted(set(trace.event_times()) | {F(0)})
        times += [(a + b) / 2 for a, b in zip(times, times[1:])]
        for lo in times:
            for hi in times:
                expected = {
                    job.id for job in trace.instance.jobs
                    if any(max(a, lo) < min(b, hi) for a, b in trace.busy_intervals(job.id))
                }
                assert trace.ran_within(lo, hi) == expected


class TestIntervalWork:
    def test_full_rate_segment(self):
        trace = run(Instance((Job(1, 0, 1),), F(1, 2)))
        assert trace.interval_work(1, (0, 1)) == 1

    def test_disjoint_interval(self):
        trace = run(Instance((Job(1, 0, 1),), F(1, 2)))
        assert trace.interval_work(1, (5, 7)) == 0

    def test_setf_pair_first_three_units(self, pair_instance):
        trace = run(pair_instance)
        assert trace.interval_work(1, (0, 3)) == F(3, 2)

    def test_additive_over_partitions(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        whole = trace.interval_work(1, (0, 6))
        assert whole == trace.interval_work(1, (0, F(7, 3))) + trace.interval_work(
            1, (F(7, 3), 6)
        )


def reference_segment_rates(rates) -> tuple:
    """``ExecutionSegment``'s rates as normalising every entry, sorting
    them and testing one rate at a time gives them: the reference for its
    fast path, which keeps canonical rates and tests a shared rate object
    once."""
    entries = []
    for j, r in rates:
        if type(j) is not int:
            raise ModelError(f"segment job id {j!r} is not an int")
        entries.append((j, r if isinstance(r, F) else Rat(r)))
    rates = tuple(sorted(entries))
    ids = [j for j, _ in rates]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate job in segment rates")
    if any(r <= 0 for _, r in rates):
        raise ModelError("segment rates must be positive")
    if sum((r for _, r in rates), Rat(0)) > 1:
        raise ModelError("segment rates exceed unit speed")
    return rates


@st.composite
def rate_lists(draw):
    """Rates as callers pass them: ids in order or shuffled, repeated or
    not, now and then a bool; Fraction or Rat values; a value object
    shared by several entries or one object per entry; a list or a tuple
    of tuples, or of lists now and then."""
    positive = [(1, 4), (1, 3), (1, 2), (2, 3), (1, 1)]
    values = draw(st.lists(st.sampled_from(positive * 4 + [(0, 1), (-1, 2)]), min_size=1, max_size=3))
    kinds = draw(st.lists(st.sampled_from([Rat, F]), min_size=len(values), max_size=len(values)))
    pool = [kind(*value) for kind, value in zip(kinds, values)]
    size = draw(st.integers(0, 5))
    ids = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size, unique=draw(st.booleans())))
    if draw(st.booleans()):
        ids.sort()
    if ids and draw(st.integers(0, 9)) == 0:
        ids[draw(st.integers(0, len(ids) - 1))] = True
    shared = draw(st.booleans())
    pair = draw(st.sampled_from([tuple, list]))
    entries = []
    for j in ids:
        k = draw(st.integers(0, len(pool) - 1))
        r = pool[k] if shared else type(pool[k])(*values[k])
        entries.append(pair((j, r)))
    return draw(st.sampled_from([tuple, list]))(entries)


class TestSegmentRates:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(rate_lists())
    def test_rates_equal_the_reference(self, rates):
        try:
            want = reference_segment_rates(rates)
        except ModelError as exc:
            with pytest.raises(ModelError, match=f"^{re.escape(str(exc))}$"):
                ExecutionSegment(0, 1, rates)
            return
        got = ExecutionSegment(0, 1, rates).rates
        assert got == want and type(got) is tuple

        def types(rates):
            return [(type(entry), *map(type, entry)) for entry in rates]

        assert types(got) == types(want)

    def test_canonical_rates_are_kept(self):
        half = Rat(1, 2)
        rates = ((1, half), (4, half))
        assert ExecutionSegment(0, 1, rates).rates is rates
        for other in ([(1, half), (4, half)], ((4, half), (1, half)), ((1, F(1, 2)), (4, F(1, 2)))):
            segment = ExecutionSegment(0, 1, other)
            assert segment.rates == rates and segment.rates is not other

    def test_a_shared_rate_counts_once_per_job(self):
        half, zero = Rat(1, 2), Rat(0)
        with pytest.raises(ModelError, match="^segment rates exceed unit speed$"):
            ExecutionSegment(0, 1, ((1, half), (2, half), (3, half)))
        with pytest.raises(ModelError, match="^segment rates must be positive$"):
            ExecutionSegment(0, 1, ((1, Rat(1, 4)), (2, zero), (3, zero)))


class TestTraceValidation:
    def test_overlapping_segments_rejected(self, pair_instance):
        segs = [
            ExecutionSegment(0, 2, ((1, F(1)),)),
            ExecutionSegment(1, 3, ((2, F(1)),)),
        ]
        with pytest.raises(ModelError):
            ScheduleTrace(pair_instance, segs)

    def test_overfull_job_rejected(self, pair_instance):
        segs = [ExecutionSegment(0, 3, ((1, F(1)),))]
        with pytest.raises(ModelError):
            ScheduleTrace(pair_instance, segs)

    def test_rated_before_release_rejected(self):
        inst = Instance((Job(1, 2, 2),), F(1, 2))
        with pytest.raises(ModelError):
            ScheduleTrace(inst, [ExecutionSegment(0, 1, ((1, F(1)),))])

    def test_rated_after_completion_rejected(self, pair_instance):
        # any rate at or after C_j gives the job more than p_j, so the
        # over-work check is the one that rejects it
        segs = [
            ExecutionSegment(0, 2, ((1, F(1)),)),
            ExecutionSegment(3, 4, ((1, F(1)),)),
        ]
        with pytest.raises(ModelError, match="more work"):
            ScheduleTrace(pair_instance, segs)

    def test_adjacent_equal_segments_merge(self, pair_instance):
        segs = [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, 2, ((1, F(1)),)),
            ExecutionSegment(2, 4, ((2, F(1)),)),
        ]
        trace = ScheduleTrace(pair_instance, segs)
        assert len(trace.segments) == 2

    def test_unresolved_instance_rejected(self):
        from alphasched.model import AdversaryScript, ProgressScaledRule, Trigger

        script = AdversaryScript(
            (Trigger("c", 5, ProgressScaledRule((1,), 2, 1)),)
        )
        inst = Instance((Job(1, 0, Deferred("c")),), F(1, 2), script)
        with pytest.raises(ModelError):
            ScheduleTrace(inst, [])

    def test_emission_is_earliest_hit(self, worked_example):
        trace, _ = simulate(worked_example, PolicyKind.ALPHA)
        assert trace.emissions == {1: F(4), 2: F(2)}

    def test_alpha_zero_signals_at_release(self):
        inst = Instance((Job(1, 1, 3),), F(0))
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        assert trace.emissions[1] == 1


@st.composite
def integer_instances(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    jobs = []
    pairs = sorted(
        (
            draw(st.integers(min_value=0, max_value=6)),
            draw(st.integers(min_value=1, max_value=6)),
        )
        for _ in range(n)
    )
    for i, (release, proc) in enumerate(pairs):
        jobs.append(Job(i + 1, release, proc))
    alpha = draw(st.sampled_from([F(0), F(1, 2), F(2, 3), F(3, 4), F(1)]))
    return Instance(tuple(jobs), alpha)


class TestTraceProperties:
    @settings(max_examples=40, deadline=None)
    @given(integer_instances(), st.sampled_from(list(PolicyKind)))
    def test_elapsed_work_monotone_and_bounded(self, inst, kind):
        trace, _ = simulate(inst, kind)
        points = trace.event_times()
        samples = sorted(set(points) | {(a + b) / 2 for a, b in zip(points, points[1:])})
        for job in inst.jobs:
            values = [trace.elapsed_work(job.id, t) for t in samples]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert all(v <= job.proc for v in values)

    @settings(max_examples=40, deadline=None)
    @given(integer_instances(), st.sampled_from(list(PolicyKind)))
    def test_flow_identity(self, inst, kind):
        # construction re-checks this; recompute both sides independently here
        trace, _ = simulate(inst, kind)
        total = sum(trace.completions[j.id] - j.release for j in inst.jobs)
        curve = trace.alive_curve
        area = sum(count * (hi - lo) for (lo, count), (hi, _) in zip(curve, curve[1:]))
        assert total == area

    @settings(max_examples=40, deadline=None)
    @given(integer_instances(), st.sampled_from(list(PolicyKind)))
    def test_work_at_integrates_the_segments(self, inst, kind):
        # the lazily indexed profile against a direct sum over the segments
        trace, _ = simulate(inst, kind)
        points = trace.event_times()
        samples = sorted(set(points) | {(a + b) / 2 for a, b in zip(points, points[1:])})
        for t in samples:
            direct = {job.id: F(0) for job in inst.jobs}
            for seg in trace.segments:
                if seg.start < t:
                    for j, r in seg.rates:
                        direct[j] += r * (min(seg.end, t) - seg.start)
            assert trace.work_at(t) == direct
            assert all(trace.elapsed_work(j, t) == y for j, y in direct.items())

    @settings(max_examples=25, deadline=None)
    @given(integer_instances())
    def test_partition_covers_released(self, inst):
        trace, _ = simulate(inst, PolicyKind.ALPHA)
        for t in trace.event_times():
            part = trace.partition(t)
            released = {j.id for j in inst.jobs if j.release <= t}
            finished = {j for j, done in trace.completions.items() if done <= t}
            assert part.alive == released - finished


class TestSweeps:
    def test_idle_at_the_signal_point_stays_unsignalled(self):
        # job 1 (p 2) reaches alpha * p = 1 at time 1 and waits while job 2
        # (p 1/2) runs on [1, 3/2]: it signals at 1 but is clairvoyant only
        # once it runs again, after 3/2
        inst = Instance((Job(1, 0, 2), Job(2, 1, F(1, 2))), F(1, 2))
        trace = ScheduleTrace(inst, [
            ExecutionSegment(0, 1, ((1, F(1)),)),
            ExecutionSegment(1, F(3, 2), ((2, F(1)),)),
            ExecutionSegment(F(3, 2), F(5, 2), ((1, F(1)),)),
        ])
        assert trace.emissions[1] == 1
        times = [F(0), F(1), F(11, 8), F(3, 2), F(7, 4), F(5, 2), F(3)]
        swept = list(TimePoint.sweep(trace, trace, times))
        assert swept == [point_at(trace, trace, t) for t in times]
        assert [sorted(p.part.clairvoyant) for p in swept] == [[], [], [2], [], [1], [], []]

    @settings(max_examples=40, deadline=None)
    @given(integer_instances(), st.sampled_from(list(PolicyKind)))
    def test_swept_columns_and_sets_equal_the_point_queries(self, inst, kind):
        trace, _ = simulate(inst, kind)
        points = trace.event_times()
        times = sorted(set(points) | {(a + b) / 2 for a, b in zip(points, points[1:])})
        times += [times[-1], times[-1] + 1]  # a repeated time, and one past the makespan
        assert list(trace.work_columns(times)) == [trace.work_at(t) for t in times]
        assert list(trace.alive_sets(times)) == [trace.alive_at(t) for t in times]
        assert list(TimePoint.sweep(trace, trace, times)) == [point_at(trace, trace, t) for t in times]

    def test_unchanged_sets_are_kept(self, pair_instance):
        trace = run(pair_instance)
        first, second, third = TimePoint.sweep(trace, trace, [F(1, 2), F(1), F(4)])
        assert second.part is first.part and second.opt_alive is first.opt_alive
        assert third.part.alive == frozenset()

    def test_time_may_not_go_back(self, pair_instance):
        trace = run(pair_instance)
        with pytest.raises(ValueError, match=r"^time point sweep asked for t=1/2 after t=1/1$"):
            list(TimePoint.sweep(trace, trace, [F(1), F(1, 2)]))
