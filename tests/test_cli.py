import hashlib
import io
import json
import shlex
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from alphasched import analysis, cli, engine
from alphasched.adversary import gen_rand32
from alphasched.cli import main
from alphasched.model import TRACE_CSV_HEADER, Instance, Job, instance_to_json, save_instance
from alphasched.oracle import quantum_simulate
from alphasched.policies import RateDecision
from conftest import json_instances


@pytest.fixture
def pair_path(tmp_path, pair_instance) -> Path:
    path = tmp_path / "pair.json"
    save_instance(pair_instance, path)
    return path


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestSimulateCommand:
    def test_writes_artifacts(self, tmp_path, pair_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--instance", str(pair_path), "--policy", "setf", "--out", str(out)]
        )
        assert code == 0
        metrics = json.loads(read(out / "metrics.json"))
        assert metrics["total_flow"] == "8/1"
        assert read(out / "trace.csv").splitlines()[0] == "start,end,job_id,rate"
        assert read(out / "events.csv").splitlines()[0] == "time,kind,job_ids"

    def test_single_job_flow_equals_proc(self, tmp_path):
        inst_path = tmp_path / "one.json"
        save_instance(Instance((Job(1, 0, 5),), F(1, 2)), inst_path)
        out = tmp_path / "out"
        assert main(["simulate", "--instance", str(inst_path), "--out", str(out)]) == 0
        assert json.loads(read(out / "metrics.json"))["total_flow"] == "5/1"

    def test_missing_instance_exits_2(self, tmp_path):
        code = main(
            ["simulate", "--instance", str(tmp_path / "none.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_malformed_instance_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": "1/0", "jobs": []}', encoding="utf-8")
        assert main(["simulate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
        bad.write_text('{"jobs": []}', encoding="utf-8")
        assert main(["simulate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
        bad.write_text("not json", encoding="utf-8")
        assert main(["simulate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
        rule = {"kind": "rank-pair", "jobs": [1, 1], "high": "4", "low": "1"}
        twice = {
            "alpha": "1/2",
            "jobs": [{"id": 1, "release": "0", "proc": {"deferred": "a"}}],
            "adversary": {"triggers": [{"id": "a", "fire_at": "1/2", "rule": rule}]},
        }
        bad.write_text(json.dumps(twice), encoding="utf-8")
        assert main(["simulate", "--instance", str(bad), "--out", str(tmp_path)]) == 2

    def test_internal_error_is_not_bad_input(self, tmp_path, pair_path, monkeypatch):
        def broken(trace):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "build_report", broken)
        with pytest.raises(KeyError):
            main(["simulate", "--instance", str(pair_path), "--out", str(tmp_path / "out")])

    def test_broken_engine_lemma_is_not_bad_input(self, tmp_path, pair_path, monkeypatch):
        # a decision rating a job that does not exist trips a lemma check:
        # its RuntimeError surfaces instead of exiting 2
        monkeypatch.setattr(engine, "decide", lambda view: RateDecision(((9, F(1)),), "srpt"))
        with pytest.raises(RuntimeError, match="^policy rated job 9 which is not alive$"):
            main(["simulate", "--instance", str(pair_path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("option", [["--alpha", "x"], ["--alpha", "1/0"], ["--horizon", "1.5"]])
    def test_bad_rational_option_exits_2(self, tmp_path, pair_path, option):
        argv = ["simulate", "--instance", str(pair_path), "--out", str(tmp_path / "out")]
        assert main(argv + option) == 2

    def test_negative_horizon_exits_2(self, tmp_path, pair_path, capsys):
        out = tmp_path / "out"
        argv = ["simulate", "--instance", str(pair_path), "--out", str(out), "--horizon", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: horizon -1 is negative\n"
        assert not out.exists()

    def test_alpha_zero_override_applies(self, tmp_path, pair_path):
        out = tmp_path / "cmp"
        argv = ["compare", "--instance", str(pair_path), "--alpha", "0", "--out", str(out)]
        assert main(argv) == 0
        assert read(out / "compare.csv").splitlines()[1].split(",")[2] == "0/1"

    def test_byte_identical_reruns(self, tmp_path, pair_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "simulate",
                    "--instance",
                    str(pair_path),
                    "--policy",
                    "alpha",
                    "--out",
                    str(out),
                ]
            )
            outs.append(
                tuple(read(out / f) for f in ("trace.csv", "events.csv", "metrics.json"))
            )
        assert outs[0] == outs[1]

    def test_quantum_cross_check(self, tmp_path, pair_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--instance",
                str(pair_path),
                "--policy",
                "setf",
                "--out",
                str(out),
                "--quantum-oracle",
            ]
        )
        assert code == 0
        entry = json.loads(read(out / "metrics.json"))["quantum_check"]
        assert entry["ok"] is True

    def test_quantum_check_of_a_cut_run_writes_nothing(self, tmp_path, capsys):
        lb = tmp_path / "lb"
        assert main(["lowerbound", "--which", "lb2", "--alpha", "1/2", "--k", "2", "--out", str(lb)]) == 0
        out = tmp_path / "out"
        argv = ["simulate", "--instance", str(lb / "realized-instance.json"), "--horizon", "3"]
        assert main(argv + ["--quantum-oracle", "--out", str(out)]) == 2
        assert "quantum cross-check needs a complete run" in capsys.readouterr().err
        assert not out.exists()

    def test_float_columns(self, tmp_path, pair_path):
        out = tmp_path / "out"
        assert main(["simulate", "--instance", str(pair_path), "--float", "--out", str(out)]) == 0
        metrics = json.loads(read(out / "metrics.json"))
        assert metrics["total_flow_float"] == 7.0
        assert metrics["makespan_float"] == 4.0
        assert metrics["total_flow"] == "7/1" and metrics["makespan"] == "4/1"


RATIONAL_FIELDS = {"alpha", "release", "proc", "fire_at", "scale", "offset", "high", "low"}


def required_fields(obj, path=()):
    """Paths of the fields an instance JSON object cannot do without: all but
    the optional top-level "adversary"."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if path or key != "adversary":
                yield path + (key,)
            yield from required_fields(value, path + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from required_fields(value, path + (k,))


@st.composite
def malformed_instances(draw):
    """The JSON of a valid instance with one required field dropped, given a
    wrong type, or, for a rational, given a zero denominator or a float; or
    with a top-level "adversary" of a falsy wrong type (only null means no
    adversary)."""
    obj = instance_to_json(draw(json_instances(agreeing=False)))
    path = draw(st.sampled_from(list(required_fields(obj)) + [("adversary",)]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    edits = ["drop", "wrong type"]
    if path == ("adversary",):
        edits = ["falsy wrong type"]
    elif key in RATIONAL_FIELDS and isinstance(parent[key], str):
        edits += ["zero denominator", "float"]
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        del parent[key]
    elif edit == "wrong type":
        parent[key] = draw(st.sampled_from([[[]], True]))
    elif edit == "falsy wrong type":
        parent[key] = draw(st.sampled_from([False, 0, "", []]))
    elif edit == "zero denominator":
        parent[key] = "1/0"
    else:
        parent[key] = 0.5
    return obj


class TestMalformedInstances:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(malformed_instances())
    def test_exit_2_with_a_one_line_message(self, obj):
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            with redirect_stderr(stderr):
                code = main(["simulate", "--instance", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 2
        message = stderr.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1


# text that int() accepts and the "num/den" wire format does not define: a
# digit separator, a non-ASCII digit, whitespace around "/", an explicit "+"
NOT_WIRE_TEXT = ["1_000", "٣", " 3 / 4 ", "+3"]


class TestWireFormat:
    @pytest.fixture
    def one_job(self, tmp_path) -> Path:
        path = tmp_path / "one.json"
        save_instance(Instance((Job(1, 0, 2),), F(1, 2)), path)
        return path

    @pytest.mark.parametrize("text", NOT_WIRE_TEXT)
    def test_proc_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        obj = {"alpha": "1/2", "jobs": [{"id": 1, "release": "0", "proc": text}]}
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["verify", "--instance", str(path)]) == 2
        assert capsys.readouterr().err == f"error: jobs[0].proc: not a rational: {text!r}\n"

    @pytest.mark.parametrize("text", NOT_WIRE_TEXT)
    @pytest.mark.parametrize("option", ["--alpha", "--horizon"])
    def test_rational_option_exits_2(self, tmp_path, capsys, one_job, option, text):
        argv = ["simulate", "--instance", str(one_job), "--out", str(tmp_path / "out")]
        assert main(argv + [option, text]) == 2
        assert f"argument {option}: not a rational: {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", NOT_WIRE_TEXT)
    def test_grid_exits_2(self, tmp_path, capsys, text):
        argv = ["sweep", "--grid", f"1/2,{text}", "--fuzz", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert f"argument --grid: not a rational: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", NOT_WIRE_TEXT)
    @pytest.mark.parametrize(
        "argv, option",
        [(["sweep", "--grid", "1/2"], option) for option in ("--fuzz", "--seed", "--max-jobs", "--max-p")]
        + [
            (["lowerbound", "--which", "lb2", "--alpha", "1/2"], "--k"),
            (["lowerbound", "--which", "lb2", "--alpha", "1/2"], "--dos-M"),
            (["lowerbound", "--which", "rand32", "--alpha", "1/2"], "--seed"),
            (["lowerbound", "--which", "rand", "--alpha", "7/8"], "--seeds"),
        ],
    )
    def test_integer_option_exits_2(self, tmp_path, capsys, argv, option, text):
        out = tmp_path / "out"
        assert main(argv + [option, text, "--out", str(out)]) == 2
        assert f"argument {option}: not an integer: {text!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", NOT_WIRE_TEXT)
    @pytest.mark.parametrize("column", range(4))
    def test_trace_field_exits_2(self, tmp_path, capsys, one_job, column, text):
        trace = tmp_path / "trace.csv"
        argv = ["verify", "--instance", str(one_job), "--trace-override", str(trace)]
        fields = ["0/1", "2/1", "1", "1/1"]
        trace.write_text(f"{TRACE_CSV_HEADER}\n{','.join(fields)}\n", encoding="utf-8")
        assert main(argv) == 0
        fields[column] = text
        row = ",".join(fields)
        trace.write_text(f"{TRACE_CSV_HEADER}\n{row}\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 2
        kind = "an integer" if column == 2 else "a rational"
        assert capsys.readouterr().err == f"error: bad trace row {row!r}: not {kind}: {text!r}\n"


    @pytest.mark.parametrize("text", ["٠.٨", "0.8_0", "+0.8", "1e-1"])
    def test_density_exits_2(self, tmp_path, capsys, text):
        out = tmp_path / "sweep"
        argv = ["sweep", "--grid", "1/2", "--fuzz", "2", "--density", text, "--out", str(out)]
        assert main(argv) == 2
        assert f"argument --density: not a decimal: {text!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_density_reads_ascii_decimals(self, tmp_path):
        rows = []
        for text in ("0.8", " .8 ", "0.80"):
            out = tmp_path / str(len(rows))
            assert main(["sweep", "--grid", "1/2", "--fuzz", "5", "--density", text, "--out", str(out)]) == 0
            rows.append(read(out / "sweep.csv"))
        assert main(["sweep", "--grid", "1/2", "--fuzz", "5", "--out", str(tmp_path / "default")]) == 0
        assert rows == [read(tmp_path / "default" / "sweep.csv")] * 3


def job_json(i, proc="1", release="0"):
    return {"id": i, "release": release, "proc": proc}


def trigger_json(name, fire_at, jobs, kind="progress-scaled"):
    params = {"high": "2", "low": "1"} if kind == "rank-pair" else {"scale": "1", "offset": "1"}
    return {"id": name, "fire_at": fire_at, "rule": {"kind": kind, "jobs": jobs, **params}}


def deferred(name):
    return {"deferred": name}


class TestBadInputMessages:
    """Bad input that reaches a model, engine or generator guard exits 2 with
    that guard's message, and writes nothing."""

    def exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs, triggers, message",
        [
            ([job_json(1, release="-1")], None, "job 1: negative release -1"),
            (
                [job_json(i, deferred("a")) for i in (1, 2, 3)],
                [trigger_json("a", "1", [1, 2, 3], "rank-pair")],
                "rank-pair rule needs exactly two jobs",
            ),
            ([job_json(1, deferred("a"))], [trigger_json("a", "-1", [1])], "trigger a: negative fire time"),
            (
                [job_json(1, deferred("a")), job_json(2, deferred("b"))],
                [trigger_json("a", "1", [1]), trigger_json("b", "1", [2])],
                "trigger fire times must be strictly increasing",
            ),
            (
                [job_json(1, deferred("a")), job_json(2, deferred("a"))],
                [trigger_json("a", "1", [1]), trigger_json("a", "2", [2])],
                "duplicate trigger ids",
            ),
            ([job_json(1, deferred("b"))], [trigger_json("a", "1", [1])], "unknown trigger 'b'"),
            (
                [job_json(1), job_json(2, deferred("a"))],
                [trigger_json("a", "1", [1])],
                "job 2 defers to trigger 'a' which does not commit it",
            ),
            (
                [job_json(1, deferred("a"))],
                [trigger_json("a", "1", ["x"])],
                "adversary.triggers[0].rule.jobs: expected a list of job ids",
            ),
            # job 1 is committed in the file, so the trigger commits it again
            ([job_json(1, "2")], [trigger_json("a", "1/2", [1])], "trigger 'a' re-commits job 1"),
        ],
    )
    def test_instance_guards(self, tmp_path, capsys, jobs, triggers, message):
        obj = {"alpha": "1/2", "jobs": jobs}
        if triggers is not None:
            obj["adversary"] = {"triggers": triggers}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        self.exits_2(tmp_path, capsys, ["simulate", "--instance", str(path)], message)

    def test_compare_without_jobs(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"alpha": "1/2", "jobs": []}), encoding="utf-8")
        self.exits_2(tmp_path, capsys, ["compare", "--instance", str(path)], "optimal total flow is zero")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1/1,1/1,1,1/1"], "bad segment bounds [1, 1]"),
            (["0/1,1/1,1,0/1"], "segment rates must be positive"),
            (["0/1,1/1,1,1/1", "0/1,1/1,2,1/1"], "segment rates exceed unit speed"),
            (["0/1,1/1,9,1/1"], "segment rates unknown job 9"),
        ],
    )
    def test_trace_override_guards(self, tmp_path, capsys, pair_path, rows, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join([TRACE_CSV_HEADER, *rows]) + "\n", encoding="utf-8")
        argv = ["verify", "--instance", str(pair_path), "--trace-override", str(trace)]
        self.exits_2(tmp_path, capsys, argv, message)

    def test_trace_override_of_a_deferred_instance(self, tmp_path, capsys):
        path = tmp_path / "deferred.json"
        obj = {
            "alpha": "1/2",
            "jobs": [job_json(1, deferred("a"))],
            "adversary": {"triggers": [trigger_json("a", "1", [1])]},
        }
        path.write_text(json.dumps(obj), encoding="utf-8")
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_CSV_HEADER}\n0/1,1/1,1,1/1\n", encoding="utf-8")
        argv = ["verify", "--instance", str(path), "--trace-override", str(trace)]
        self.exits_2(tmp_path, capsys, argv, "trace override requires a resolved instance")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--grid", ","], "empty alpha grid"),
            (["sweep", "--grid", "1/1"], "grid alpha 1/1 outside [0, 1)"),
            (["sweep", "--grid", "1/2", "--fuzz", "1", "--max-p", "0"], "need n >= 1 and max_p >= 1"),
            (["sweep", "--grid", "1/2", "--density", "-0.5"], "--density must lie in [0, 1]"),
            (["sweep", "--grid", "1/2", "--density", "1.5"], "--density must lie in [0, 1]"),
            (["lowerbound", "--which", "lb2", "--alpha", "1"], "deterministic bound needs 0 < alpha < 1"),
            (["lowerbound", "--which", "rand32", "--alpha", "1"], "phase bound needs 0 < alpha < 1"),
            (["lowerbound", "--which", "lb2", "--alpha", "1/2", "--dos-M", "-1"], "tail length must be at least 1"),
        ],
    )
    def test_option_guards(self, tmp_path, capsys, argv, message):
        self.exits_2(tmp_path, capsys, argv, message)


class TestQuantumFailure:
    """A total flow off the quantum oracle's by more than n^2/64 exits 1, with
    the outputs written."""

    @pytest.fixture(autouse=True)
    def off_by_one(self, monkeypatch):
        def shifted(inst, kind, quantum):
            run = quantum_simulate(inst, kind, quantum)
            return replace(run, total_flow=run.total_flow + 1)

        monkeypatch.setattr(cli, "quantum_simulate", shifted)

    def test_simulate_exits_1(self, tmp_path, pair_path):
        out = tmp_path / "out"
        assert main(["simulate", "--instance", str(pair_path), "--quantum-oracle", "--out", str(out)]) == 1
        assert json.loads(read(out / "metrics.json"))["quantum_check"] == {
            "quantum": "1/64", "total_flow": "8/1", "gap": "1/1", "bound": "1/16", "ok": False,
        }

    def test_compare_exits_1(self, tmp_path, pair_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", str(pair_path), "--quantum-oracle", "--out", str(out)]) == 1
        assert [row.split(",")[-1] for row in read(out / "compare.csv").splitlines()] == [
            "quantum_gap", "1/1", "1/1", "63/64",
        ]


class TestCompareCommand:
    def test_table(self, tmp_path, pair_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", str(pair_path), "--out", str(out)]) == 0
        rows = read(out / "compare.csv").splitlines()
        assert rows[0] == "instance_id,policy,alpha,total_flow,ratio"
        table = {r.split(",")[1]: r.split(",") for r in rows[1:]}
        assert table["srpt"][0] == "pair" and table["srpt"][2] == "1/2"
        assert table["srpt"][4] == "1/1"
        assert table["setf"][4] == "4/3"
        assert table["alpha"][3] == "7/1"


    def test_float_columns(self, tmp_path, pair_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--instance", str(pair_path), "--float", "--out", str(out)]) == 0
        assert read(out / "compare.csv").splitlines() == [
            "instance_id,policy,alpha,total_flow,ratio,total_flow_float,ratio_float",
            "pair,alpha,1/2,7/1,7/6,7.000000,1.166667",
            "pair,srpt,1/2,6/1,1/1,6.000000,1.000000",
            "pair,setf,1/2,8/1,4/3,8.000000,1.333333",
        ]


class TestVerifyCommand:
    def test_clean_instance_passes(self, tmp_path, pair_path):
        out = tmp_path / "ver"
        code = main(["verify", "--instance", str(pair_path), "--out", str(out)])
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert report["ok"] is True

    @pytest.mark.parametrize("seed", [3, 4])  # alpha = 1/2 and 2/3 corpus picks
    def test_fuzz_instances_pass(self, tmp_path, seed):
        from conftest import corpus_instance

        inst = corpus_instance(seed)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert main(["verify", "--instance", str(path)]) == 0

    def test_corrupted_trace_fails_and_round_trips(self, tmp_path, pair_path):
        sim_out = tmp_path / "sim"
        main(
            [
                "simulate",
                "--instance",
                str(pair_path),
                "--policy",
                "alpha",
                "--out",
                str(sim_out),
            ]
        )
        rows = read(sim_out / "trace.csv").replace("0/1,2/1,2,1/2", "0/1,2/1,2,1/4")
        bad = tmp_path / "bad-trace.csv"
        bad.write_text(rows, encoding="utf-8")
        out = tmp_path / "ver"
        code = main(
            [
                "verify",
                "--instance",
                str(pair_path),
                "--trace-override",
                str(bad),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert (out / "counterexample-instance.json").exists()
        # the emitted counterexample reproduces the failure verbatim
        code2 = main(
            [
                "verify",
                "--instance",
                str(out / "counterexample-instance.json"),
                "--trace-override",
                str(out / "counterexample-trace.csv"),
            ]
        )
        assert code2 == 1

    @pytest.mark.parametrize("flag", ["--no-flow-checks", "--no-refinement"])
    def test_switches_are_gone(self, pair_path, flag):
        assert main(["verify", "--instance", str(pair_path), flag]) == 2

    def test_unreadable_trace_override_exits_2(self, tmp_path, pair_path):
        argv = ["verify", "--instance", str(pair_path), "--trace-override"]
        assert main(argv + [str(tmp_path / "none.csv")]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("start,end,job_id,rate\n0/1,1/1,x,1/1\n", encoding="utf-8")
        assert main(argv + [str(bad)]) == 2
        # the SRPT trace of the pair without its header line, and an empty file
        headless = tmp_path / "headless.csv"
        headless.write_text("0/1,2/1,1,1/1\n2/1,4/1,2,1/1\n", encoding="utf-8")
        assert main(argv + [str(headless)]) == 2
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(argv + [str(empty)]) == 2

    def test_time_sweep_run_backwards_is_not_bad_input(self, pair_path, monkeypatch):
        # only a caller inside the package can ask a sweep for an earlier
        # time: the fault surfaces with its traceback instead of exit 2
        times = analysis.check_times

        def reversed_dense(alg, opt):
            events, dense = times(alg, opt)
            return events, dense[::-1]

        monkeypatch.setattr(analysis, "check_times", reversed_dense)
        with pytest.raises(ValueError, match=r"^time point sweep asked for t=7/2 after t=4/1$"):
            main(["verify", "--instance", str(pair_path)])


# (--which and options, sha256 prefix of lowerbound.json, of
# realized-instance.json or None if not written, stdout).  The lb1, lb2 and
# rand rows date from before lb1, lb2 and rand32 shared one path; rand32
# then gained delta_alg and realized-instance.json, and its stdout stayed.
LOWERBOUND_PINS = [
    (["lb1", "--alpha", "1/2", "--k", "6"], "27128fc9443b1b16", "c9887353fc215d12",
     "lb1 alpha=1/2 k=6: delta(t,1)=6 delta*(t)=4"),
    (["lb2", "--alpha", "1/2", "--k", "2", "--dos-M", "50"], "b4f8533f6bda5838", "41b7d1c0cc61a98b",
     "lb2 alpha=1/2 k=2: delta(t,1)=4 delta*(t)=2 window_ratio=1.6711"),
    (["lb1", "--alpha", "2/3", "--k", "3", "--dos-M", "20"], "d0869d14901863ba", "303b01a14cbdb6b5",
     "lb1 alpha=2/3 k=3: delta(t,1)=3 delta*(t)=2 window_ratio=1.9856"),
    (["rand", "--alpha", "7/8", "--seeds", "5"], "8daed034eb330655", None,
     "rand alpha=7/8 k=16 t=24 over 5 seeds: mean delta(t,1)=7.200 mean delta*(t)=5.400"),
    (["rand32", "--alpha", "1/2", "--k", "3", "--seed", "5"], "3b68efbef20a50df", "74f87d5cbc30594e",
     "rand32 alpha=1/2 k=3 seed=5: delta(t,1)=6 delta*(t)=3"),
]


class TestLowerboundCommand:
    def test_lb1(self, tmp_path, capsys):
        out = tmp_path / "lb"
        code = main(
            ["lowerbound", "--which", "lb1", "--alpha", "1/2", "--k", "6", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(read(out / "lowerbound.json"))
        assert result["delta_alg_ge1"] == 6
        assert (out / "realized-instance.json").exists()

    def test_lb2_with_tail(self, tmp_path):
        out = tmp_path / "lb"
        code = main(
            [
                "lowerbound",
                "--which",
                "lb2",
                "--alpha",
                "1/2",
                "--k",
                "2",
                "--dos-M",
                "50",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(read(out / "lowerbound.json"))
        assert result["delta_alg_ge1"] == 4 and result["delta_opt"] == 2
        assert result["window_ratio_float"] > 1.0

    def test_rand_means(self, tmp_path):
        out = tmp_path / "lb"
        code = main(
            [
                "lowerbound",
                "--which",
                "rand",
                "--alpha",
                "7/8",
                "--seeds",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(read(out / "lowerbound.json"))
        assert result["k"] == 16 and result["measure_time"] == "24/1"
        assert F(result["mean_delta_alg_ge1"]) > F(result["mean_delta_opt"])

    def test_rand_means_are_exact(self, tmp_path, capsys):
        out = tmp_path / "lb"
        argv = ["lowerbound", "--which", "rand", "--alpha", "7/8", "--seeds", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "mean delta(t,1)=7.200 mean delta*(t)=5.400" in capsys.readouterr().out
        result = json.loads(read(out / "lowerbound.json"))
        assert result["conditioned_samples"] == 3
        assert result["mean_delta_alg_ge1"] == "36/5"
        assert result["mean_delta_opt"] == "27/5"
        assert result["mean_delta_alg_ge1_conditioned"] == "22/3"
        assert result["mean_delta_opt_conditioned"] == "16/3"

    def test_rand_means_without_conditioned_samples(self, tmp_path):
        # seeds 1 and 2 each draw a processing time above 1/(1 - alpha)
        out = tmp_path / "lb"
        argv = ["lowerbound", "--which", "rand", "--alpha", "7/8", "--seed", "1", "--seeds", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        result = json.loads(read(out / "lowerbound.json"))
        assert result["conditioned_samples"] == 0
        assert result["mean_delta_alg_ge1_conditioned"] is None
        assert result["mean_delta_opt_conditioned"] is None

    def test_rand32(self, tmp_path):
        out = tmp_path / "lb"
        code = main(
            [
                "lowerbound",
                "--which",
                "rand32",
                "--alpha",
                "1/2",
                "--k",
                "3",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(read(out / "lowerbound.json"))
        assert result["delta_opt"] <= 3

    @pytest.mark.parametrize(
        "which, lowerbound, realized, stdout", LOWERBOUND_PINS, ids=[" ".join(row[0]) for row in LOWERBOUND_PINS]
    )
    def test_pinned_bytes(self, tmp_path, capsys, which, lowerbound, realized, stdout):
        out = tmp_path / "lb"
        assert main(["lowerbound", "--which", *which, "--out", str(out)]) == 0
        assert capsys.readouterr().out == stdout + "\n"

        def digest(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]

        assert digest("lowerbound.json") == lowerbound
        if realized is None:
            assert not (out / "realized-instance.json").exists()
        else:
            assert digest("realized-instance.json") == realized

    def test_rand32_applies_the_dos_tail(self, tmp_path, capsys):
        out = tmp_path / "lb"
        argv = ["lowerbound", "--which", "rand32", "--alpha", "1/2", "--k", "2", "--seed", "5"]
        assert main(argv + ["--dos-M", "50", "--out", str(out)]) == 0
        assert "window_ratio=" in capsys.readouterr().out
        result = json.loads(read(out / "lowerbound.json"))
        assert result["dos_m"] == 50
        assert {"window_flow_alg", "window_flow_opt", "window_ratio", "total_ratio"} <= result.keys()
        realized = json.loads(read(out / "realized-instance.json"))
        assert len(realized["jobs"]) == len(gen_rand32(F(1, 2), 2, 5)[0].jobs) + 50

    def test_rand_rejects_dos_tail(self, tmp_path, capsys):
        argv = ["lowerbound", "--which", "rand", "--alpha", "7/8", "--seeds", "2", "--dos-M", "50"]
        assert main(argv + ["--out", str(tmp_path / "lb")]) == 2
        assert "--dos-M" in capsys.readouterr().err
        assert not (tmp_path / "lb").exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["rand", "--alpha", "7/8", "--seeds", "2", "--k", "3"], "--k"),
            (["lb1", "--alpha", "1/2", "--k", "2", "--seeds", "7", "--seed", "9"], "--seeds"),
            (["rand32", "--alpha", "1/2", "--k", "2", "--seeds", "7"], "--seeds"),
            (["lb2", "--alpha", "1/2", "--seed", "3"], "--seed"),
        ],
    )
    def test_option_the_family_does_not_read_exits_2(self, tmp_path, capsys, argv, option):
        out = tmp_path / "lb"
        assert main(["lowerbound", "--which", *argv, "--out", str(out)]) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_rand32_without_phases_exits_2(self):
        assert main(["lowerbound", "--which", "rand32", "--alpha", "1/2", "--k", "0"]) == 2

    def test_no_seeds_exits_2(self):
        assert main(["lowerbound", "--which", "rand", "--alpha", "7/8", "--seeds", "0"]) == 2

    def test_bad_alpha_range_exits_2(self):
        assert main(["lowerbound", "--which", "rand", "--alpha", "1/4", "--seeds", "1"]) == 2


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--grid",
                "0,1/2",
                "--fuzz",
                "4",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read(out / "sweep.csv").splitlines()
        assert rows[0] == "alpha,max_alive_ratio,max_flow_ratio"
        assert rows[1].startswith("0/1,") and rows[1].endswith(",1/1")

    def test_pinned_rows(self, tmp_path):
        """The worst ratios over 150 fuzz instances, as recorded before the
        sweep sampled through analysis.check_times."""
        out = tmp_path / "sweep"
        argv = ["sweep", "--grid", "1/2,2/3,3/4", "--fuzz", "150", "--seed", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert read(out / "sweep.csv").splitlines() == [
            "alpha,max_alive_ratio,max_flow_ratio",
            "1/2,2/1,139/99",
            "2/3,3/1,164/105",
            "3/4,4/1,229/140",
        ]

    def test_float_columns_and_max_p(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--grid", "1/2,2/3", "--fuzz", "5", "--float", "--max-p", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert read(out / "sweep.csv").splitlines() == [
            "alpha,max_alive_ratio,max_flow_ratio,max_alive_ratio_float,max_flow_ratio_float",
            "1/2,2/1,53/40,2.000000,1.325000",
            "2/3,3/1,43/30,3.000000,1.433333",
        ]

    def test_workers_flag_is_gone(self, tmp_path):
        argv = ["sweep", "--grid", "1/2", "--fuzz", "2", "--workers", "2"]
        assert main(argv + ["--out", str(tmp_path / "sweep")]) == 2

    def test_alive_ratio_maxima_respect_bound(self, tmp_path):
        from alphasched.rational import parse_rat

        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--grid",
                "1/2,2/3,3/4",
                "--fuzz",
                "12",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        for row in read(out / "sweep.csv").splitlines()[1:]:
            alpha, alive_ratio, _ = row.split(",")
            alpha, alive_ratio = parse_rat(alpha), parse_rat(alive_ratio)
            assert alive_ratio <= 4 + 2 / (1 - alpha)

    @pytest.mark.parametrize(
        "option",
        [["--grid", "1/2,x"], ["--max-jobs", "0"], ["--density", "nan"], ["--fuzz", "-1"]],
    )
    def test_bad_input_exits_2(self, tmp_path, option):
        argv = ["sweep", "--grid", "1/2", "--fuzz", "2", "--out", str(tmp_path)]
        assert main(argv + option) == 2

    def test_non_integer_factor_rejected(self, tmp_path):
        assert (
            main(["sweep", "--grid", "1/3", "--fuzz", "1", "--out", str(tmp_path)]) == 2
        )

    def test_empty_corpus_header_only(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--grid", "1/2", "--fuzz", "0", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        rows = read(out / "sweep.csv").splitlines()
        assert rows == ["alpha,max_alive_ratio,max_flow_ratio"]


def test_readme_commands_run(tmp_path, monkeypatch, pair_instance):
    # every command of README's "Command line" block, run where inst.json is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("alphasched ")]
    assert len(commands) == 5
    save_instance(pair_instance, tmp_path / "inst.json")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
