import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import hypersa
from hypersa import cli, optics, protocols, verifier
from hypersa.states import _Amplitudes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    text = resources.files("hypersa.schemas").joinpath(name).read_text()
    return json.loads(text)


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "analyze", "P:+00;S:-01", "--seed", "4")
        assert code == 0
        assert "label: P:+00;S:-01" in out
        assert "(phi+_P psi-_S)" in out
        assert "probe alpha1: magnitude 0" in out
        assert "probe beta1: magnitude 1" in out
        assert "feasibility alpha*theta^2" in err

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, "analyze", "P:+000;S:+000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("analyze.schema.json"))
        assert doc["label"]["literal"] == "P:+000;S:+000"
        assert all(p["magnitude"] == 0 for p in doc["probes"])
        assert len(doc["probes"]) == 4

    def test_malformed_literal_exits_2_naming_token(self, capsys):
        code, _, err = run(capsys, "analyze", "P:±;S:")
        assert code == 2
        assert "±" in err

    def test_photon_count_flag_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "P:+00;S:+00", "--n", "3")
        assert code == 2
        assert "expected 3" in err

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "P:phi+;S:psi-", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,alpha1,beta1,detection"
        assert lines[1].startswith("P:+00;S:-01,0,1,")

    def test_guard_exits_3(self, capsys):
        code, out, err = run(capsys, "analyze", "P:+" + "0" * 11 + ";S:+" + "0" * 11)
        assert code == 3
        assert out == ""
        assert "2 <= n <= 10, got 11" in err

    @pytest.mark.parametrize("argv, got", [
        (["P:+0;S:+0"], 1),
        (["P:+00;S:+00", "--n", "11"], 11),
        # an --n outside the guard exits 3 before the literal is read
        (["P:±;S:", "--n", "11"], 11)])
    def test_count_outside_the_guard_exits_3(self, capsys, argv, got):
        code, out, err = run(capsys, "analyze", *argv)
        assert (code, out) == (3, "")
        assert err == f"error: analyze supports 2 <= n <= 10, got {got}\n"

    @pytest.mark.parametrize("flag,value", [("--theta", "nan"), ("--alpha", "inf"),
                                            ("--seed", "-1")])
    def test_invalid_number_exits_2_naming_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "analyze", "P:+00;S:+00", "--format", "json",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"error: {flag} must be" in err


class TestVerify:
    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("report.schema.json"))
        assert doc == {"n": 2, "total": 16, "correct": 16, "groups": 4,
                       "model": "ideal"}

    def test_guard_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "11")
        assert code == 3
        assert "2 <= n <= 10" in err

    def test_csv_per_state_rows(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,alpha1,beta1,branches,ok"
        assert len(lines) == 17
        assert all(line.endswith(",4,1") for line in lines[1:])

    def test_text_failure_names_the_broken_invariant(self, capsys, monkeypatch):
        real = protocols.decode_signs
        monkeypatch.setattr(protocols, "decode_signs",
                            lambda outcome: (real(outcome)[0],) * 2)
        code, out, _ = run(capsys, "verify", "--n", "2")
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        # a spatial factor is all H, so its sign read from the V count is
        # "+": the inputs with a "-" spatial sign fail
        assert code == 1 and len(fails) == 8
        assert fails[0] == "FAIL P:+00;S:-00 signature=(0, 0) broken=S signs"
        assert all(";S:-" in line and line.endswith(" broken=S signs") for line in fails)

    def test_complex_branch_probabilities_fail_and_are_named(self, capsys, monkeypatch):
        # the one-site mutant abs(amp) ** 2 -> amp ** 2: every branch keeps
        # its signs, but its probability is a complex number no draw can use
        source = inspect.getsource(optics.detection_distribution)
        assert source.count("abs(amp) ** 2") == 1
        namespace = dict(vars(optics))
        exec(source.replace("abs(amp) ** 2", "amp ** 2"), namespace)
        monkeypatch.setattr(optics, "detection_distribution", namespace["detection_distribution"])
        code, out, _ = run(capsys, "verify", "--n", "2")
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert code == 1 and len(fails) == 16
        assert all(line.endswith(" broken=P probabilities") for line in fails)
        assert all(check.broken == frozenset({f"{dof} probabilities"})
                   for dof, table in verifier.verify_complete(3).factors.items()
                   for check in table.values())

    def test_a_table_with_the_wrong_keys_fails(self, capsys, monkeypatch):
        # an enumeration that also yields the complement representatives
        # leaves each factor run unbroken and the product at 4^n, yet 3 in 4
        # of the records it yields fail
        monkeypatch.setattr(verifier, "canonical_bit_strings",
                            lambda n: [format(i, f"0{n}b") for i in range(2 ** n)])
        report = verifier.verify_complete(3)
        assert report.correct == report.total_states == 64
        assert not report.all_correct
        assert run(capsys, "verify", "--n", "3")[0] == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_passing_report_builds_no_per_input_records(self, monkeypatch, fmt):
        def no_records(*args):
            raise AssertionError("a per-input record was built")

        monkeypatch.setattr(verifier, "StateCheck", no_records)
        assert cli.main(["verify", "--n", "5", "--format", fmt]) == 0


class TestTables:
    def test_csv_signature_header_contract(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "state,alpha1,beta1"
        assert lines[1] == "P:00;S:00,0,0"
        assert lines[4] == "P:01;S:01,t,t"

    def test_csv_three_photon_header(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "state,alpha1,alpha2,beta1,beta2"

    def test_four_photon_generic_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "4", "--format", "csv")
        assert code == 0
        signature_lines = out.split("\n\n")[0].splitlines()
        assert len(signature_lines) == 1 + 64

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "tables", "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("tables.schema.json"))
        assert len(doc["signature_table"]) == 4
        assert len(doc["detection_table"]) == 4

    def test_guard_exits_3(self, capsys):
        code, _, _ = run(capsys, "tables", "--n", "11")
        assert code == 3


class TestMonteCarlo:
    ARGS = ("montecarlo", "--n", "2", "--model", "gaussian", "--theta", "0.2",
            "--alpha", "60", "--trials", "400", "--seed", "12")

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("montecarlo.schema.json"))
        assert doc["trials"] == 400

    def test_text_output_lists_each_probe(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--n", "3", *self.ARGS[3:])
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("probe ")]
        assert [line.split(":")[0] for line in lines] == [
            "probe alpha1", "probe alpha2", "probe beta1", "probe beta2"]
        assert all("misread rate" in line and "gaussian_error_prob 0.115847" in line
                   for line in lines)

    def test_gaussian_verify_json_validates(self, capsys):
        code, out, _ = run(capsys, "verify", *self.ARGS[1:], "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema("report.schema.json"))
        assert sum(doc["noise"]["per_probe_flips"].values()) >= doc["noise"]["errors"]

    def test_requires_gaussian_model(self, capsys):
        code, _, err = run(capsys, "montecarlo", "--n", "2", "--trials", "10")
        assert code == 2
        assert "gaussian" in err

    def test_text_output_mentions_prediction(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        assert "aggregate error rate" in out
        assert "predicted" in out
        assert err.startswith("feasibility alpha*theta^2 = 2.4 (weak-probe ")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("analyze", "P:+00;S:-01", "--seed", "9", "--format", "json"),
        ("verify", "--n", "2", "--format", "csv"),
        ("tables", "--n", "3", "--format", "csv"),
        ("montecarlo", "--n", "2", "--model", "gaussian", "--theta", "0.2",
         "--alpha", "30", "--trials", "100", "--seed", "5", "--format", "json"),
    ])
    def test_identical_invocations_are_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestEnvironmentOverrides:
    def test_env_sets_seed_and_theta(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSA_SEED", "123")
        monkeypatch.setenv("HYPERSA_THETA", "0.05")
        code, out, _ = run(capsys, "analyze", "P:+00;S:+00", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 123
        assert doc["theta"] == 0.05

    def test_env_sets_model_and_format(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSA_MODEL", "gaussian")
        monkeypatch.setenv("HYPERSA_FORMAT", "json")
        code, out, _ = run(capsys, "analyze", "P:+00;S:+00")
        assert code == 0
        assert json.loads(out)["model"] == "gaussian"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERSA_SEED", "123")
        code, out, _ = run(capsys, "analyze", "P:+00;S:+00", "--seed", "7",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_bad_env_value_exits_2(self, capsys, monkeypatch):
        for name, value, argv, named in (
                ("HYPERSA_TRIALS", "many", ("verify", "--n", "2"),
                 "error: environment variable HYPERSA_TRIALS='many': "
                 "invalid int value: 'many'\n"),
                ("HYPERSA_N", "2.5", ("verify",),
                 "error: environment variable HYPERSA_N='2.5': invalid int value: '2.5'\n"),
                ("HYPERSA_MODEL", "bogus", ("verify", "--n", "2"),
                 "error: environment variable HYPERSA_MODEL='bogus': "
                 "invalid choice: 'bogus' (choose from 'ideal', 'gaussian')\n"),
                ("HYPERSA_FORMAT", "xml", ("analyze", "P:+00;S:+00"),
                 "error: environment variable HYPERSA_FORMAT='xml': "
                 "invalid choice: 'xml' (choose from 'text', 'json', 'csv')\n")):
            with monkeypatch.context() as env:
                env.setenv(name, value)
                code, _, err = run(capsys, *argv)
            assert code == 2, name
            assert named in err


# every subcommand lists the same flags, from one parent parser
_FLAGS_HELP = """
options:
  -h, --help            show this help message and exit
  --n N                 photon count
  --theta THETA         cross-Kerr phase shift per pass (radians)
  --alpha ALPHA         coherent probe amplitude
  --model {ideal,gaussian}
                        homodyne readout model
  --trials TRIALS       Monte Carlo trial count
  --seed SEED           master seed; all streams derive from it
  --format {text,json,csv}
                        output format
"""
_TOP_USAGE = "usage: hypersa [-h] {analyze,verify,tables,montecarlo} ...\n"

# (exit code, stdout, stderr) of --help and of an unknown flag, 80 columns wide
HELP = {
    ("--help",): (0, _TOP_USAGE + """
Hyperentangled Bell/GHZ state analysis simulator

positional arguments:
  {analyze,verify,tables,montecarlo}
    analyze             analyze one hyperentangled input
    verify              exhaustively verify all 4^n inputs
    tables              emit signature and detection tables
    montecarlo          sampled noise study (gaussian model)

options:
  -h, --help            show this help message and exit
""", ""),
    ("analyze", "--help"): (0, """\
usage: hypersa analyze [-h] [--n N] [--theta THETA] [--alpha ALPHA]
                       [--model {ideal,gaussian}] [--trials TRIALS]
                       [--seed SEED] [--format {text,json,csv}]
                       state

positional arguments:
  state                 state literal, e.g. 'P:+00;S:-01'
""" + _FLAGS_HELP, ""),
    ("verify", "--help"): (0, """\
usage: hypersa verify [-h] [--n N] [--theta THETA] [--alpha ALPHA]
                      [--model {ideal,gaussian}] [--trials TRIALS]
                      [--seed SEED] [--format {text,json,csv}]
""" + _FLAGS_HELP, ""),
    ("tables", "--help"): (0, """\
usage: hypersa tables [-h] [--n N] [--theta THETA] [--alpha ALPHA]
                      [--model {ideal,gaussian}] [--trials TRIALS]
                      [--seed SEED] [--format {text,json,csv}]
""" + _FLAGS_HELP, ""),
    ("montecarlo", "--help"): (0, """\
usage: hypersa montecarlo [-h] [--n N] [--theta THETA] [--alpha ALPHA]
                          [--model {ideal,gaussian}] [--trials TRIALS]
                          [--seed SEED] [--format {text,json,csv}]
""" + _FLAGS_HELP, ""),
    ("verify", "--bogus"): (2, "", _TOP_USAGE
                            + "hypersa: error: unrecognized arguments: --bogus\n"),
}


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [["analyze", "P:+00;S:+00"], ["verify"],
                                      ["tables"], ["montecarlo"]])
    def test_parser_defaults_are_the_runconfig_defaults(self, monkeypatch, argv):
        for name in ("THETA", "ALPHA", "MODEL", "TRIALS", "SEED"):
            monkeypatch.delenv(cli.ENV_PREFIX + name, raising=False)
        args = cli.build_parser().parse_args(argv)
        assert ({name: getattr(args, name) for name in protocols.RunConfig._fields}
                == protocols.RunConfig()._asdict())

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_and_unknown_flag_error_are_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == HELP[argv]

    def test_verify_exit_zero_only_when_all_correct(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["correct"] == doc["total"]
        assert doc["groups"] == 16


# The exact stdout of four seeded commands that draw: gaussian readouts and
# a detection event, an n=7 analysis in the benchmark's form, a Monte Carlo
# study, and the gaussian verify noise study.  Every stream is
# random.Random(f"{seed}:{name}"), which draws the same numbers on every
# supported Python, so a change here is a change to the streams.  The
# detector event is one draw per DOF factor, P then S, from one stream.
PINNED_STDOUT = {
    ("analyze", "P:-010;S:+011", "--model", "gaussian", "--seed", "3"):
        "label: P:-001;S:+011\n"
        "probe alpha1: magnitude 0 p=0.401294\n"
        "probe alpha2: magnitude 1 p=0.401294\n"
        "probe beta1: magnitude 1 p=0.598706\n"
        "probe beta2: magnitude 1 p=0.598706\n"
        "detection: A1- B1- C1-\n",
    ("analyze", "P:+0110100;S:-0011011", "--format", "json", "--seed", "7"):
        '{"probes": [{"probe": "alpha1", "magnitude": 1, "p": 1.0}, '
        '{"probe": "alpha2", "magnitude": 1, "p": 1.0}, '
        '{"probe": "alpha3", "magnitude": 0, "p": 1.0}, '
        '{"probe": "alpha4", "magnitude": 1, "p": 1.0}, '
        '{"probe": "alpha5", "magnitude": 0, "p": 1.0}, '
        '{"probe": "alpha6", "magnitude": 0, "p": 1.0}, '
        '{"probe": "beta1", "magnitude": 0, "p": 1.0}, '
        '{"probe": "beta2", "magnitude": 1, "p": 1.0}, '
        '{"probe": "beta3", "magnitude": 1, "p": 1.0}, '
        '{"probe": "beta4", "magnitude": 0, "p": 1.0}, '
        '{"probe": "beta5", "magnitude": 1, "p": 1.0}, '
        '{"probe": "beta6", "magnitude": 1, "p": 1.0}], '
        '"detection": [{"photon": "A", "mode": 2, "pol": "V"}, '
        '{"photon": "B", "mode": 2, "pol": "V"}, {"photon": "C", "mode": 1, "pol": "H"}, '
        '{"photon": "D", "mode": 2, "pol": "H"}, {"photon": "E", "mode": 2, "pol": "H"}, '
        '{"photon": "F", "mode": 2, "pol": "V"}, {"photon": "G", "mode": 1, "pol": "V"}], '
        '"theta": 0.01, "alpha": 5000.0, "model": "ideal", "seed": 7, '
        '"label": {"p_sign": "+", "p_bits": "0110100", "s_sign": "-", '
        '"s_bits": "0011011", "literal": "P:+0110100;S:-0011011"}}\n',
    ("montecarlo", "--n", "2", "--model", "gaussian", "--trials", "2000",
     "--seed", "5", "--format", "json"):
        '{"n": 2, "per_probe_error": 0.40129447987314965, "trials": 2000, '
        '"errors": 1284, "rate": 0.642, "wilson_low": 0.620734990771311, '
        '"wilson_high": 0.6627205478301433, "predicted": 0.6415517001696376, '
        '"per_state": {"P:+00;S:+00": {"trials": 120, "errors": 73}, '
        '"P:+00;S:-00": {"trials": 128, "errors": 80}, '
        '"P:-00;S:+00": {"trials": 115, "errors": 75}, '
        '"P:-00;S:-00": {"trials": 128, "errors": 78}, '
        '"P:+00;S:+01": {"trials": 107, "errors": 71}, '
        '"P:+00;S:-01": {"trials": 111, "errors": 76}, '
        '"P:-00;S:+01": {"trials": 134, "errors": 90}, '
        '"P:-00;S:-01": {"trials": 124, "errors": 71}, '
        '"P:+01;S:+00": {"trials": 124, "errors": 80}, '
        '"P:+01;S:-00": {"trials": 130, "errors": 86}, '
        '"P:-01;S:+00": {"trials": 122, "errors": 83}, '
        '"P:-01;S:-00": {"trials": 120, "errors": 79}, '
        '"P:+01;S:+01": {"trials": 137, "errors": 87}, '
        '"P:+01;S:-01": {"trials": 138, "errors": 89}, '
        '"P:-01;S:+01": {"trials": 143, "errors": 89}, '
        '"P:-01;S:-01": {"trials": 119, "errors": 77}}, '
        '"per_probe_flips": {"alpha1": 777, "beta1": 830}}\n',
    ("verify", "--n", "2", "--model", "gaussian", "--trials", "2000",
     "--seed", "8", "--format", "text"):
        "n=2 total=16 correct=16 groups=4 model=gaussian\n"
        "noise: rate=0.643000 wilson95=[0.621746, 0.663706] predicted=0.641552 trials=2000\n"
        "probe alpha1: misread rate 0.406000 (gaussian_error_prob 0.401294)\n"
        "probe beta1: misread rate 0.391000 (gaussian_error_prob 0.401294)\n",
}


def pin_id(argv):
    """A pin's test id: its command, and "-json" for the JSON analyze pin."""
    return argv[0] + ("-json" if argv[0] == "analyze" and "json" in argv else "")


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=pin_id)
def test_seeded_draws_print_the_pinned_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == PINNED_STDOUT[argv]


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "3"),
    ("montecarlo", "--n", "2", "--model", "gaussian", "--trials", "50"),
    ("analyze", "P:+0110101;S:-0011010"),
], ids=lambda argv: argv[0])
def test_a_run_builds_no_state_through_a_checked_constructor(capsys, monkeypatch, argv):
    # the constructors check a caller's input; every state a run makes is
    # derived from checked ones, so their per-key checks never run
    built, checked_init = [], _Amplitudes.__init__
    monkeypatch.setattr(_Amplitudes, "__init__",
                        lambda self, *args: built.append(self) or checked_init(self, *args))
    assert run(capsys, *argv)[0] == 0
    assert built == []


def child_env(**env):
    """This process's environment with this hypersa importable and ``env``
    added."""
    src = str(Path(hypersa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **env}


def run_python(*args, **env):
    """A fresh interpreter, run on ``args`` with this hypersa importable and
    ``env`` added to its environment, which must exit 0."""
    done = subprocess.run([sys.executable, *args], env=child_env(**env),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("hashseed", ["0", "4242"])
@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=pin_id)
def test_pinned_stdout_holds_under_any_hash_seed(argv, hashseed):
    # a string seed is hashed with SHA-512, not hash(), so str hash
    # randomization cannot move a stream
    done = run_python("-m", "hypersa.cli", *argv, PYTHONHASHSEED=hashseed)
    assert done.stdout == PINNED_STDOUT[argv]


# runs subcommands through cli.main in one fresh interpreter and reports,
# after each, whether numpy, dataclasses and inspect have been imported
FIRST_DRAW_SCRIPT = """
import contextlib, io, sys
from hypersa import cli
for argv in (["verify", "--n", "3"], ["tables", "--n", "3"], ["analyze", "P:+00;S:-01"],
             ["analyze", "P:-010;S:+011", "--model", "gaussian"],
             ["montecarlo", "--n", "2", "--model", "gaussian", "--trials", "20"],
             ["verify", "--n", "2", "--model", "gaussian", "--trials", "20"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(*argv, *(name in sys.modules for name in ("numpy", "dataclasses", "inspect")))
"""


def test_no_command_imports_numpy_dataclasses_or_inspect():
    # verify (ideal readout) and tables draw nothing, analyze draws a few
    # doubles and montecarlo and the gaussian verify noise study draw some
    # per trial; streams make all of them without numpy, so no command
    # loads it.  The records are NamedTuples, so no command loads
    # dataclasses either, nor the inspect, ast and dis it imports, which
    # would slow every start-up
    done = run_python("-c", FIRST_DRAW_SCRIPT)
    assert done.stdout.splitlines() == [f"{argv} False False False" for argv in (
        "verify --n 3", "tables --n 3", "analyze P:+00;S:-01",
        "analyze P:-010;S:+011 --model gaussian",
        "montecarlo --n 2 --model gaussian --trials 20",
        "verify --n 2 --model gaussian --trials 20")]


# runs one subcommand through cli.main in a fresh interpreter and reports
# the hypersa modules it loaded, the subcommand handlers they define, whether
# csv and copy were loaded, and whether protocols had imported the verifier's
# entry point
IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys
from hypersa import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0, sys.argv
modules = sorted(m for m in sys.modules if m.startswith("hypersa"))
print(json.dumps({"modules": modules,
                  "handlers": sorted(name for m in modules for name in vars(sys.modules[m])
                                     if name.startswith("cmd_")),
                  "csv": "csv" in sys.modules, "copy": "copy" in sys.modules,
                  "verify_complete": "verify_complete" in vars(sys.modules["hypersa.protocols"])}))
"""

ANALYSER = ["hypersa", "hypersa.cli", "hypersa.kerr", "hypersa.optics",
            "hypersa.protocols", "hypersa.rng", "hypersa.states"]


def loaded_by(*argv):
    return json.loads(run_python("-c", IMPORT_GRAPH_SCRIPT, *argv).stdout)


class TestImportGraph:
    """A process loads only the modules its subcommand runs: the analyser
    for analyze, the verifier or the noise study on top of it for the
    others, and csv only for --format csv.  Each handler lives with what it
    runs, so no other subcommand's handler is compiled.  analyze loads no
    copy: its streams are plain random.Random."""

    def test_analyze_loads_only_the_analyser(self):
        assert loaded_by("analyze", "P:+00;S:-01", "--format", "json") == {
            "modules": ANALYSER, "handlers": ["cmd_analyze"], "csv": False,
            "copy": False, "verify_complete": False}

    def test_ideal_verify_loads_no_noise_study_and_no_tables(self):
        loaded = loaded_by("verify", "--n", "3")
        assert "hypersa.verifier" in loaded["modules"]
        assert not {"hypersa.noise", "hypersa.tables"} & set(loaded["modules"])
        assert loaded["handlers"] == ["cmd_analyze", "cmd_verify"]

    def test_montecarlo_loads_no_verifier_and_no_tables(self):
        loaded = loaded_by("montecarlo", "--n", "2", "--model", "gaussian",
                           "--trials", "20")
        assert "hypersa.noise" in loaded["modules"]
        assert not {"hypersa.verifier", "hypersa.tables"} & set(loaded["modules"])
        assert loaded["handlers"] == ["cmd_analyze", "cmd_montecarlo"]

    @pytest.mark.parametrize("module", ["verifier", "noise", "tables"])
    def test_library_modules_load_no_argparse(self, module):
        # the handlers reach the parser's helpers only when a command runs
        done = run_python("-c", f"import sys, hypersa.{module}; "
                                "print('argparse' in sys.modules)")
        assert done.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "7"], ["tables", "--n", "7"],
    ["montecarlo", "--n", "7", "--model", "gaussian", "--trials", "100"]],
    ids=lambda argv: argv[0])
def test_a_closed_pipe_ends_quietly(argv):
    # `hypersa ... | head -n 1`: each output is far larger than the pipe
    # buffer, so the process writes again after the reader has gone
    with subprocess.Popen([sys.executable, "-m", "hypersa.cli", *argv, "--format", "csv"],
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"state,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err
    # not 0, and none of the codes that mean a result (1) or a usage error (2, 3)
    assert code not in range(4), (code, err)


# entry() as the console script runs it, with canonical_bit_strings mutated
# to also yield the complement representatives, so verify exits 1
MUTANT_ENTRY_SCRIPT = """
import sys
from hypersa import verifier
verifier.canonical_bit_strings = lambda n: [format(i, f"0{n}b") for i in range(2 ** n)]
from hypersa.cli import entry
entry()
"""


@pytest.mark.parametrize("args, code", [
    (["-m", "hypersa.cli", "verify", "--n", "2"], 0),
    (["-c", MUTANT_ENTRY_SCRIPT, "verify", "--n", "3"], 1),
    (["-m", "hypersa.cli", "analyze", "P:+00;S:+00", "--n", "3"], 2),
    (["-m", "hypersa.cli", "verify", "--n", "11"], 3)], ids=["0", "1", "2", "3"])
def test_a_fresh_process_exits_with_the_documented_code(args, code):
    done = subprocess.run([sys.executable, *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


def test_buffered_stdout_is_flushed_before_the_process_ends():
    # entry() ends the process without interpreter teardown, so it must
    # flush the block-buffered stdout of a pipe itself
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "hypersa.cli", "verify", "--n", "6",
                           "--format", "csv"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 4 ** 6 + 1
    assert done.stdout.endswith("P:-011111;S:-011111,1,1,1,1,1,1,1,1,1,1,1024,1\n")


# registers an atexit handler, sets a trace function if asked, then runs
# entry() as the console script does
ATEXIT_SCRIPT = """
import atexit, sys
atexit.register(print, "atexit ran")
if sys.argv.pop(1) == "traced":
    sys.settrace(lambda *args: None)
from hypersa.cli import entry
entry()
"""


@pytest.mark.parametrize("hook", ["untraced", "traced"])
def test_entry_skips_teardown_unless_a_tracer_watches(hook):
    # untraced, the process ends at os._exit once its output is flushed;
    # under a tracer it exits normally, so the tracer can write its report
    done = run_python("-c", ATEXIT_SCRIPT, hook, "verify", "--n", "2")
    assert done.stdout.startswith("n=2 total=16 correct=16 ")
    assert done.stdout.endswith("atexit ran\n") == (hook == "traced")


@pytest.mark.parametrize("argv, first", [
    (["analyze", "P:+00;S:-01"], "label: P:+00;S:-01  (phi+_P psi-_S)"),
    (["verify", "--n", "2"], "n=2 total=16 correct=16 groups=4 model=ideal"),
    (["tables", "--n", "2"], "probe shift signatures (4 groups):"),
    (["montecarlo", "--n", "2", "--model", "gaussian", "--trials", "20"], "trials: 20")],
    ids=["analyze", "verify", "tables", "montecarlo"])
def test_every_command_runs_under_cprofile(argv, first):
    # cProfile runs the module with its own __main__ in sys.modules; its
    # report ("... function calls ...") shows the process exited normally.
    # cProfile swallows the SystemExit, so its exit code says nothing
    done = subprocess.run([sys.executable, "-m", "cProfile", "-m", "hypersa.cli", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr, done.stderr
    assert done.stdout.splitlines()[0] == first
    assert " function calls " in done.stdout


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    run_python(str(demo))
