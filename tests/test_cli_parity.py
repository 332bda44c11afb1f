"""The CLI's surface, pinned byte for byte: option tables, output routing, exit codes.

Each subcommand's options (strings, action, type, default, required, choices
and help, in declaration order, which is also their --help order), the exact
stdout, stderr and --out bytes of one argv per output mode, and the error
exits.  --out is opened only once the answer is computed, so a failing query
creates no file and prints nothing on stdout.
"""

import argparse

import pytest

from ratelim import cli
from ratelim.codec_loop import SaturationError

PLANT = [
    (("--n",), "_StoreAction", "int", None, True, None, "plant order"),
    (("--a-star",), "_StoreAction", "_floats", None, True, None, "nominal coefficients a1*,...,an*"),
    (("--eps",), "_StoreAction", "_floats", None, True, None, "uncertainty radii eps1,...,epsn"),
]
# declared only where a loop starts from an output
Y0 = (("--y0-bound",), "_StoreAction", "float", None, False, None, "initial output bound Y0")
HELP = (("-h", "--help"), "_HelpAction", None, argparse.SUPPRESS, False, None,
        "show this help message and exit")
OUT = (("--out",), "_StoreAction", None, None, False, None, None)
LOSS = (("--p",), "_StoreAction", "float", 0.0, False, None, "packet loss probability")
KINDS = ("nominal", "fixed_vertex", "iid_uniform", "greedy_adversarial")
TRIALS = [
    (("--trials",), "_StoreAction", "int", None, False, None, None),
    (("--steps",), "_StoreAction", "int", None, False, None, None),
    (("--seed",), "_StoreAction", "int", None, False, None, None),
    (("--strategy",), "_StoreAction", None, None, False, KINDS, None),
    (("--signs",), "_StoreAction", "_signs", None, False, None, "vertex signs, e.g. +,-"),
]


OPTIONS = {
    "bounds": [
        HELP, *PLANT,
        LOSS,
        OUT,
    ],
    "sufficient": [
        HELP, *PLANT,
        LOSS,
        (("--N",), "_StoreAction", "int", None, False, None, "quantizer levels (integer >= 2)"),
        (("--min-n",), "_StoreTrueAction", None, False, False, None,
         "search the smallest sufficient N"),
        (("--n-max",), "_StoreAction", "int", None, False, None, "search cap for --min-n"),
        OUT,
    ],
    "simulate": [
        HELP, *PLANT, Y0,
        LOSS,
        (("--N",), "_StoreAction", "int", None, True, None, None),
        (("--m",), "_StoreAction", "int", None, False, None,
         "time-share cycle duration (scalar plants)"),
        *TRIALS,
        (("--tol-slope",), "_StoreAction", "float", 1e-3, False, None, None),
        OUT,
    ],
    "sweep": [
        HELP, *PLANT, Y0,
        LOSS,
        (("--N",), "_StoreAction", "float", None, False, None, None),
        (("--var",), "_StoreAction", None, None, True, ("lambda", "p", "N", "m"), None),
        (("--range",), "_StoreAction", "_range", None, True, None, "lo:hi:step"),
        (("--empirical",), "_StoreTrueAction", None, False, False, None,
         "add a Monte Carlo verdict column"),
        *TRIALS,
        OUT,
    ],
    "timeshare": [
        HELP,
        (("--n",), "_StoreAction", "int", 1, False, None, None),
        (("--a-star",), "_StoreAction", "_floats", None, True, None, None),
        (("--eps",), "_StoreAction", "_floats", None, True, None, None),
        LOSS,
        (("--m",), "_StoreAction", "int", None, True, None, None),
        (("--N",), "_StoreAction", "float", None, False, None, "per-slot level for kappa_bar"),
        OUT,
    ],
}


def _option_table(parser):
    return [
        (tuple(a.option_strings), type(a).__name__, getattr(a.type, "__name__", None),
         a.default, a.required, None if a.choices is None else tuple(a.choices), a.help)
        for a in parser._actions
    ]


def test_each_subcommand_keeps_its_option_table():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    for name, want in OPTIONS.items():
        assert _option_table(sub.choices[name]) == want, name


BOUNDS_JSON = """{
  "r_nec0": 1.4139276870783215,
  "r_nec1": 1.4652966315869893,
  "r_nec": 1.4652966315869893,
  "p_nec": 0.22499999999999998,
  "r_you": 1.292481250360578,
  "p_you": 0.25,
  "r_phat": 1.8988532765431003,
  "r_martins": 1.15200309344505,
  "feasible": true
}
"""
MIN_N_JSON = """{
  "n": 2,
  "p": 0.05,
  "min_N": 6,
  "rho": 0.9454131145810963,
  "sufficient": true
}
"""
TIMESHARE_JSON = """{
  "m": 2,
  "delta_plus": 0.16562499999999858,
  "delta_minus": 0.16437499999999972,
  "kappa_bar": 1.7050353619117715,
  "r_bar": 1.8415708553004233,
  "feasible": true,
  "min_total_level": 30,
  "avg_level": 5.477225575051661
}
"""
LAMBDA_CSV = """\
lambda,r_nec0,r_nec1,r_nec,p_nec,rho,min_N,verdict
1.5,0.6875826817607364,0.6683388235491442,0.6875826817607364,0.41562499999999997,0.5685713156911517,3.1259170174598694,
2.0,1.1687754861043365,1.1779865817671944,1.1779865817671944,0.23750000000000004,0.7027968970612983,4.10558907687664,
2.5,1.5971508479686596,1.6276633928861721,1.6276633928861721,0.15346153846153848,0.8355365757716617,5.3915024027228355,
"""
DURATION_CSV = """\
m,delta_plus,delta_minus,kappa_bar,r_bar,feasible,min_total_level,avg_level
1,0.02499999999999991,0.02499999999999991,0.7119140624999998,1.7480207826752017,True,4,4.0
2,0.16562499999999858,0.16437499999999972,0.9801951946190813,1.8415708553004233,True,13,3.605551275463989
3,0.8229531249999908,0.8105781249999993,0.9994315586689281,2.527574211533955,True,192,5.768998281229633
"""
EMPIRICAL_CSV = """\
p,r_nec0,r_nec1,r_nec,p_nec,rho,min_N,verdict
0.0,1.070389327891398,1.078002512001273,1.078002512001273,0.22499999999999998,0.11390625000000001,2.1111111119389534,stable
0.1,1.4139276870783215,1.4652966315869893,1.4652966315869893,0.22499999999999998,0.5435156250000002,2.7612023781985044,stable
0.2,2.4509958980978404,2.741745598136921,2.741745598136921,0.22499999999999998,0.9731250000000001,6.688791610300541,stable
"""
DECAY_CSV = """\
k,mean_sq_y,mean_sq_sigma
0,0.012717930804780106,1.0
1,0.013267264087433785,0.275625
2,0.06655261713645537,0.4567377604166667
3,0.0027590732082992133,0.15062457177734384
4,0.0007434747560033755,0.042548836736755406
5,0.00017572100942464357,0.01186399013976702
"""
VERDICT_JSON = """{
  "verdict": "stable",
  "slope": -1.2706413437694384,
  "diverged_trials": 0,
  "converged_trials": 0
}
"""
SIMULATE = ("simulate", "--n", "1", "--a-star", "2", "--eps", "0.1", "--p", "0.1", "--N", "4",
            "--trials", "3", "--steps", "6", "--seed", "5", "--strategy", "greedy_adversarial")
BAD_PLANT = ("bounds", "--n", "1", "--a-star", "1.5", "--eps", "0.6")


def _run(capsys, tmp_path, argv, out):
    """(exit code, stdout, stderr, --out bytes or None, other files left in tmp_path)."""
    target = tmp_path / "answer"
    code = cli.main(list(argv) + (["--out", str(target)] if out else []))
    captured = capsys.readouterr()
    written = target.read_bytes().decode() if target.exists() else None
    others = sorted(p.name for p in tmp_path.iterdir() if p != target)
    return code, captured.out, captured.err, written, others


@pytest.mark.parametrize("argv, out, want_out, want_err, want_file", [
    pytest.param(("bounds", "--n", "1", "--a-star", "2", "--eps", "0.1", "--p", "0.1"), False,
                 BOUNDS_JSON, "", None, id="json-stdout"),
    pytest.param(("sufficient", "--n", "2", "--a-star", "1,2.5", "--eps", "0.05,0.05",
                  "--p", "0.05", "--min-n"), True, "", "", MIN_N_JSON, id="json-out"),
    pytest.param(("timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0.05", "--m", "2",
                  "--N", "4"), False, TIMESHARE_JSON, "", None, id="timeshare-json-stdout"),
    pytest.param(("sweep", "--n", "2", "--a-star", "1,2", "--eps", "0.05,0.05", "--p", "0.05",
                  "--var", "lambda", "--range", "1.5:2.5:0.5", "--N", "8"), False,
                 LAMBDA_CSV, "", None, id="csv-stdout"),
    pytest.param(("sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--var", "m",
                  "--range", "1:3:1"), True, "", "", DURATION_CSV, id="duration-csv-out"),
    pytest.param(("sweep", "--n", "1", "--a-star", "2", "--eps", "0.1", "--p", "0.1",
                  "--var", "p", "--range", "0:0.2:0.1", "--N", "8", "--empirical",
                  "--trials", "3", "--steps", "10", "--seed", "5"), True,
                 "", "", EMPIRICAL_CSV, id="empirical-csv-out"),
    pytest.param(SIMULATE, False, DECAY_CSV, VERDICT_JSON, None, id="simulate-stdout"),
    pytest.param(SIMULATE, True, VERDICT_JSON, "", DECAY_CSV, id="simulate-out"),
])
def test_output_modes_keep_their_bytes(capsys, tmp_path, argv, out, want_out, want_err,
                                       want_file):
    assert _run(capsys, tmp_path, argv, out) == (0, want_out, want_err, want_file, [])


def test_invalid_input_exits_2_before_opening_out(capsys, tmp_path):
    want_err = "error: plant violates |an*| - eps_n > 1 (got |1.5| - 0.6)\n"
    for out in (False, True):
        assert _run(capsys, tmp_path, BAD_PLANT, out) == (2, "", want_err, None, [])


def test_invariant_breach_exits_3_before_opening_out(capsys, tmp_path, monkeypatch):
    def saturated(*args):
        raise SaturationError("quantizer input 0.75 outside [-1/2, 1/2]")

    monkeypatch.setattr(cli, "run_experiment", saturated)
    want_err = "invariant breach: quantizer input 0.75 outside [-1/2, 1/2]\n"
    for out in (False, True):
        assert _run(capsys, tmp_path, SIMULATE, out) == (3, "", want_err, None, [])


@pytest.mark.parametrize("argv", [
    pytest.param(("bounds", "--n", "1", "--a-star", "1.5", "--eps", "0.1"), id="json"),
    pytest.param(SIMULATE, id="simulate"),
])
def test_out_directory_exits_2_with_nothing_on_stdout(capsys, tmp_path, argv):
    code = cli.main(list(argv) + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_a_rebound_command_is_reached_through_the_cached_parser(capsys, monkeypatch):
    assert cli.main(list(BAD_PLANT)) == 2  # builds the parser, which later calls reuse
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()

    def rebound(args):
        raise RuntimeError("rebound cmd_bounds")

    monkeypatch.setattr(cli, "cmd_bounds", rebound)
    with pytest.raises(RuntimeError, match="rebound cmd_bounds"):
        cli.main(["bounds", "--n", "1", "--a-star", "2", "--eps", "0.1"])


PLANT_FLAGS = ("--n", "1", "--a-star", "2", "--eps", "0.1")
REPEATED = [
    (("--help",), False),
    *(((name, "--help"), False) for name in OPTIONS),
    ((), False),
    (("nosuch",), False),
    (("bounds", "--n", "1", "--a-star", "2"), False),  # --eps missing
    (SIMULATE[:-1] + ("bogus",), False),  # a --strategy outside its choices
    (("sufficient", *PLANT_FLAGS, "--N", "4.5"), False),
    (("bounds", *PLANT_FLAGS, "--config"), False),
    (("bounds", *PLANT_FLAGS, "--config", "no-such-file.cfg"), False),
    (("bounds", *PLANT_FLAGS, "--p", "0.1"), False),
    (("timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0.05", "--m", "2", "--N", "4"),
     True),
    (("sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--var", "m", "--range", "1:3:1"),
     True),
    (("sufficient", "--n", "2", "--a-star", "1,2.5", "--eps", "0.05,0.05", "--p", "0.05",
      "--min-n"), False),
]


def test_repeated_calls_in_one_process_keep_their_bytes(capsys, tmp_path, monkeypatch):
    """The first pass builds the parser and the second reuses it; each argv's exit code,
    stdout, stderr and --out bytes are the same in both."""
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    monkeypatch.chdir(tmp_path)  # the missing config path is relative
    cli.build_parser.cache_clear()
    passes = []
    for n in range(2):
        results = []
        for i, (argv, out) in enumerate(REPEATED):
            where = tmp_path / f"pass{n}-{i}"
            where.mkdir()
            results.append(_run(capsys, where, argv, out))
        passes.append(results)
    assert passes[0] == passes[1]
    codes = [code for code, *_ in passes[0]]
    assert codes == [0] * (1 + len(OPTIONS)) + [2] * 7 + [0] * 4
