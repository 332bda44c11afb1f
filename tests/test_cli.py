import contextlib
import io
import json
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelim import montecarlo
from ratelim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_certain_plant(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r_nec"] == pytest.approx(1.0, abs=1e-12)
    assert payload["p_nec"] == pytest.approx(0.25, abs=1e-12)
    assert payload["r_phat"] == pytest.approx(1.0, abs=1e-12)
    assert payload["r_martins"] == pytest.approx(1.0, abs=1e-12)
    assert payload["feasible"] is True


def test_bounds_second_order(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds",
        "--n", "2",
        "--a-star", "1,2.5",
        "--eps", "0.05,0.05",
        "--p", "0.05",
    )
    assert code == 0
    payload = json.loads(out)
    from ratelim.limits import necessary_bounds

    nb = necessary_bounds(2.5, 0.05, 0.05)
    assert payload["r_nec"] == pytest.approx(nb.r_nec, abs=1e-12)
    assert payload["r_phat"] is None  # comparison bounds are scalar-only
    assert payload["r_martins"] is None


def test_bounds_rejects_marginal_plant(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--n", "1", "--a-star", "1.5", "--eps", "0.6", "--p", "0"
    )
    assert code == 2
    assert "error" in err


def test_bounds_mismatched_lengths(capsys):
    code, _, _ = run_cli(
        capsys, "bounds", "--n", "2", "--a-star", "1,2", "--eps", "0", "--p", "0"
    )
    assert code == 2


def test_sufficient_fixed_level(capsys):
    code, out, _ = run_cli(
        capsys,
        "sufficient",
        "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0", "--N", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == pytest.approx(0.25, abs=1e-12)
    assert payload["sufficient"] is True


def test_sufficient_rejects_low_level(capsys):
    code, _, _ = run_cli(
        capsys,
        "sufficient",
        "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0", "--N", "1",
    )
    assert code == 2


def test_sufficient_min_search(capsys):
    code, out, _ = run_cli(
        capsys,
        "sufficient",
        "--n", "1", "--a-star", "2", "--eps", "0.1", "--p", "0", "--min-n",
    )
    assert code == 0
    assert json.loads(out)["min_N"] == 3


def test_simulate_emits_csv_and_verdict(capsys, tmp_path):
    out_file = tmp_path / "decay.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0", "--N", "4",
        "--trials", "5", "--steps", "50", "--seed", "3",
        "--strategy", "nominal",
        "--out", str(out_file),
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "stable"
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,mean_sq_y,mean_sq_sigma"
    assert len(lines) == 51
    for line in lines[1:]:
        k, sq_y, sq_sigma = line.split(",")
        int(k), float(sq_y), float(sq_sigma)  # every cell parses as a number


def test_simulate_without_out_writes_csv_to_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0", "--N", "4",
        "--trials", "2", "--steps", "20", "--strategy", "nominal",
    )
    assert code == 0
    assert out.startswith("k,mean_sq_y,mean_sq_sigma")
    assert json.loads(err)["verdict"] == "stable"


def test_simulate_timeshare_mode(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--p", "0", "--N", "4",
        "--m", "2", "--trials", "3", "--steps", "30", "--strategy", "iid_uniform",
    )
    assert code == 0
    assert json.loads(err)["verdict"] == "stable"


def test_sweep_lambda_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n", "2", "--a-star", "1,2", "--eps", "0.05,0.05", "--p", "0.05",
        "--var", "lambda", "--range", "1.5:2.5:0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,r_nec0,r_nec1,r_nec,p_nec,rho,min_N,verdict"
    assert len(lines) == 4  # 1.5, 2.0, 2.5


def test_sweep_duration_routes_to_timeshare(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--p", "0",
        "--var", "m", "--range", "1:4:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,delta_plus,delta_minus,kappa_bar,r_bar")
    assert len(lines) == 5


def test_sweep_bad_range(capsys):
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--n", "1", "--a-star", "2", "--eps", "0", "--p", "0",
        "--var", "lambda", "--range", "3:1:0.5",
    )
    assert code == 2


def test_timeshare_single_duration(capsys):
    code, out, _ = run_cli(
        capsys,
        "timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0", "--m", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["min_total_level"] == 13
    assert payload["avg_level"] == pytest.approx(math.sqrt(13.0))


def test_timeshare_infeasible_duration_reports_null_rate(capsys):
    code, out, _ = run_cli(
        capsys,
        "timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0", "--m", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["r_bar"] is None  # infinite maps to null in JSON


def test_timeshare_long_duration_answers_without_a_level(capsys):
    code, out, _ = run_cli(
        capsys,
        "timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0", "--m", "40",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["min_total_level"] is None


def test_timeshare_sweep_m_matches_sweep_var_m(capsys, tmp_path):
    plant = ("--a-star", "3.3", "--eps", "0.025", "--p", "0.05")
    by_sweep, by_timeshare = tmp_path / "sweep.csv", tmp_path / "timeshare.csv"
    assert run_cli(
        capsys, "sweep", "--n", "1", *plant, "--var", "m", "--range", "1:4:1",
        "--out", str(by_sweep),
    )[0] == 0
    assert run_cli(
        capsys, "timeshare", *plant, "--sweep-m", "1:4:1", "--out", str(by_timeshare)
    )[0] == 0
    assert by_sweep.read_bytes() == by_timeshare.read_bytes()
    assert len(by_sweep.read_text().splitlines()) == 5


# A loop whose log mean-square sigma grows by 2.66 a step.
SLOPE_PROBE = (
    "simulate", "--n", "1", "--a-star", "5", "--eps", "0.1", "--N", "2", "--p", "0.5",
    "--trials", "3", "--steps", "100",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "2", "--a-star", "1,nan", "--eps", "0,0"),
        ("bounds", "--n", "1", "--a-star", "3", "--eps", "nan"),
        ("bounds", "--n", "1", "--a-star", "3", "--eps", "0", "--y0-bound", "nan"),
        ("sufficient", "--n", "1", "--a-star", "inf", "--eps", "0", "--N", "4"),
        ("timeshare", "--a-star", "nan", "--eps", "0.1", "--m", "2"),
        ("timeshare", "--a-star", "inf", "--eps", "0.1", "--m", "2"),
        ("timeshare", "--a-star", "3", "--eps", "0.1", "--m", "2", "--N", "nan"),
        ("timeshare", "--a-star", "3", "--eps", "0.1", "--m", "0"),
        ("timeshare", "--a-star", "inf", "--eps", "0.1", "--sweep-m", "1:2:1"),
        ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "m", "--range", "0:1:1"),
        # finite inputs whose closed forms or lifted matrix leave float range
        ("bounds", "--n", "1", "--a-star", "1e200", "--eps", "0"),
        ("timeshare", "--a-star", "3.3", "--eps", "0.025", "--m", "1000"),
        (
            "sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--var", "m",
            "--range", "600:700:100",
        ),
        (
            "simulate", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--N", "4",
            "--m", "1000", "--trials", "2", "--steps", "10",
        ),
        ("sufficient", "--n", "1", "--a-star", "1e300", "--eps", "0", "--N", "4"),
        ("sufficient", "--n", "1", "--a-star", "1e300", "--eps", "0", "--min-n"),
        # lifted eigenvalues of nearly equal modulus: power iteration cannot
        # separate the dominant one within its budget
        ("sufficient", "--n", "2", "--a-star", "0,1e16", "--eps", "0.9,0", "--N", "60"),
        # a negative slope tolerance would call a growing loop stable
        (*SLOPE_PROBE, "--tol-slope=-5"),
        (*SLOPE_PROBE, "--tol-slope=nan"),
        (*SLOPE_PROBE, "--tol-slope=inf"),
        # a duration grid with non-integer points, which int() would truncate
        (
            "sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--var", "m",
            "--range", "1:3:0.5",
        ),
        ("timeshare", "--a-star", "3.3", "--eps", "0.025", "--sweep-m", "1:2:0.25"),
        # a start range past the divergence guard, whose squares would overflow
        (
            "simulate", "--n", "1", "--a-star", "1e10", "--eps", "0", "--y0-bound", "1e300",
            "--N", "4", "--trials", "1", "--steps", "10", "--seed", "0", "--strategy", "nominal",
        ),
        # more levels than a double tells apart
        (
            "simulate", "--n", "1", "--a-star", "2", "--eps", "0", "--N", "9007199254740993",
            "--trials", "12", "--steps", "10",
        ),
    ],
)
def test_invalid_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if argv[0] == "sufficient" and "1e300" in argv:
        # the message names the flags whose growth factor left float range
        assert "--a-star/--eps" in err



@pytest.mark.parametrize("trials", ["1", "12"])
@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_overflowed_range_is_a_diverged_trial(capsys, trials, seed):
    # the prediction set overflows and its length is inf - inf = NaN: one trial
    # (scalar loop) or twelve (batched) end diverged, whatever the seed
    code, _, err = run_cli(
        capsys, "simulate", "--n", "1", "--a-star", "1e300", "--eps", "0", "--y0-bound", "1e10",
        "--N", "4", "--steps", "10", "--strategy", "nominal", "--trials", trials, "--seed", seed,
    )
    assert code == 0, err
    assert "Traceback" not in err and "NaN to integer" not in err
    verdict = json.loads(err)
    assert verdict["verdict"] == "unstable"
    assert verdict["diverged_trials"] == int(trials)

@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 4): random starts "
                   "reach the lost-containment orbit of the range-boundary xfail")
def test_random_starts_keep_containment(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "1", "--a-star", "10", "--eps", "0", "--N", "256",
        "--p", "0.5", "--trials", "40", "--steps", "400", "--strategy", "nominal", "--seed", "0",
    )
    assert code == 0, err


def test_sufficient_answers_plant_near_overflow(capsys):
    # squared growth factors reach 1e308; the scaled iterate keeps every product finite
    code, out, _ = run_cli(
        capsys, "sufficient", "--n", "2", "--a-star", "1e154,1e154", "--eps", "0,0", "--N", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sufficient"] is False
    assert payload["rho"] == pytest.approx(6.25e306, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "2", "--a-star", "0,1e16", "--eps", "0.9,0", "--N", "60"),
        ("--n", "3", "--a-star=-5e-324,-5e-324,-2.64e16", "--eps=0.37,0.91,5e-29", "--N", "60"),
    ],
)
def test_unclosed_bracket_is_reported(capsys, argv):
    # lifted eigenvalues of nearly equal modulus: the bracket cannot close within
    # the budget, but the message says where the radius lies
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sufficient", *argv)
    assert time.perf_counter() - start < 3.0
    assert code == 2
    assert out == ""
    lo, hi = (float(v) for v in re.search(r"\[([^,]+), ([^\]]+)\]", err).groups())
    assert 1.0 < lo <= hi < math.inf


ORDER_30 = ("--n", "30", "--a-star", "0," * 29 + "2", "--eps", "0," * 29 + "0")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "1", "--a-star", "2", "--eps", "0.1", "--N", "4",
         "--trials", "1", "--steps", "1000000000000"),
        # a step costs about in proportion to the order: the cap falls with it
        ("simulate", *ORDER_30, "--N", "2", "--trials", "1", "--steps", "200001"),
        ("simulate", "--n", "1", "--a-star", "2", "--eps", "0", "--N", "2", "--m", "30",
         "--trials", "1", "--steps", "200001"),
        ("sweep", "--n", "1", "--a-star", "2", "--eps", "0.1", "--var", "N", "--range", "2:4:1",
         "--empirical", "--trials", "1", "--steps", "333334"),
    ],
    ids=["steps", "order_30", "timeshare_m_30", "sweep_grid"],
)
def test_monte_carlo_work_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceed the cap" in err


@pytest.mark.parametrize(
    "option, grid",
    [
        ("--range", "1.5:inf:1"),
        ("--range", "2:3:1e-9"),
        ("--range", "nan:2:1"),
        ("--range", "1.5:2:nan"),
        ("--range", "1e20:1e20:1"),  # a step that cannot move the grid value
        ("--sweep-m", "1:1e9:1"),
    ],
)
def test_unbounded_or_non_finite_grids_exit_2(capsys, option, grid):
    if option == "--range":
        argv = ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "lambda")
    else:
        argv = ("timeshare", "--a-star", "3.3", "--eps", "0.025")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, option, grid)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error" in err


# Any float a flag may carry, with the non-finite and extreme ones named.
EXTREMES = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
    0.0, -0.0,
)
ANY_FLOAT = st.one_of(st.sampled_from(EXTREMES), st.floats())


@st.composite
def _numbers(draw, bands):
    """One float per (lo, hi) band, then up to two of them replaced by any float.

    The bands hold most valid answers, so a fifth to two thirds of the
    drawn inputs (by command) get one; the rest probe one or two hostile
    values at a time.
    """
    values = [draw(st.floats(lo, hi)) for lo, hi in bands]
    for i in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[i] = draw(ANY_FLOAT)
    return values


def _flag(name, values):
    # "--name=value" keeps argparse from taking a negative value for an option
    return f"--{name}=" + ",".join(repr(v) for v in values)


@st.composite
def _plant_argv(draw, command):
    n = draw(st.integers(1, 3))
    # the last coefficient's band keeps |an*| - eps_n > 1 for every band radius
    bands = [(-5.0, 5.0)] * (n - 1) + [(2.0, 5.0)] + [(0.0, 1.0)] * n + [(0.0, 1.0), (0.0, 10.0)]
    values = draw(_numbers(bands))
    return (
        command, "--n", str(n),
        _flag("a-star", values[:n]), _flag("eps", values[n : 2 * n]),
        _flag("p", values[-2:-1]), _flag("y0-bound", values[-1:]),
    )


@st.composite
def _sufficient_argv(draw):
    return (*draw(_plant_argv("sufficient")), "--N", str(draw(st.integers(-2, 64))))


@st.composite
def _timeshare_argv(draw):
    a, e, p, levels = draw(_numbers([(2.0, 5.0), (0.0, 1.0), (0.0, 1.0), (1.0, 64.0)]))
    return (
        "timeshare", _flag("a-star", [a]), _flag("eps", [e]), _flag("p", [p]),
        "--m", str(draw(st.integers(-1, 3))), _flag("N", [levels]),
    )


@st.composite
def _sweep_argv(draw):
    # every row of this plant costs two small solves, so even the longest
    # grid allowed stays within a few seconds
    grid = ":".join(repr(v) for v in draw(_numbers([(1.0, 64.0), (1.0, 64.0), (0.0, 8.0)])))
    return ("sweep", "--n", "1", "--a-star", "1.2", "--eps", "0", "--var", "N", f"--range={grid}")


# A trial or step count: small and valid, or zero, negative or far past the
# work cap.
COUNTS = st.one_of(st.integers(1, 30), st.sampled_from((0, -1, -(10**12), 10**12, 2**64)))


@st.composite
def _simulate_argv(draw):
    return (
        *draw(_plant_argv("simulate")), "--N", str(draw(st.integers(2, 16))),
        "--trials", str(draw(COUNTS)), "--steps", str(draw(COUNTS)),
        "--strategy", draw(st.sampled_from(("nominal", "iid_uniform", "greedy_adversarial"))),
    )


@st.composite
def _tol_slope_argv(draw):
    (tol,) = draw(_numbers([(0.0, 0.1)]))
    return (*SLOPE_PROBE, _flag("tol-slope", [tol]))


@st.composite
def _empirical_sweep_argv(draw):
    # three grid points of one scalar plant: the counts and p carry the hostile values
    (p,) = draw(_numbers([(0.0, 0.5)]))
    return (
        "sweep", "--n", "1", "--a-star", "2.5", "--eps", "0.1", "--var", "N", "--range", "2:4:1",
        _flag("p", [p]), "--empirical", "--trials", str(draw(COUNTS)), "--steps", str(draw(COUNTS)),
    )


@pytest.mark.parametrize(
    "argvs",
    [
        _plant_argv("bounds"), _sufficient_argv(), _timeshare_argv(), _sweep_argv(),
        _simulate_argv(), _empirical_sweep_argv(), _tol_slope_argv(),
    ],
    ids=["bounds", "sufficient", "timeshare", "sweep", "simulate", "sweep_empirical", "tol-slope"],
)
def test_fuzzed_numbers_exit_0_or_2(argvs):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(argvs)
    def check(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) in (0, 2)

    check()


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "1", "--a-star", "2.2,7", "--eps", "0.05,9", "--N", "3", "--m", "2",
         "--trials", "3", "--steps", "50"),
        ("timeshare", "--a-star", "3.3,99", "--eps", "0.025", "--m", "2"),
        ("timeshare", "--a-star", "3.3", "--eps", "0.025,0.5", "--sweep-m", "1:2:1"),
        ("timeshare", "--a-star", ",", "--eps", "0.025", "--m", "2"),
        ("sweep", "--n", "1", "--a-star", "3.3,5", "--eps", "0.025", "--var", "m",
         "--range", "1:2:1"),
    ],
)
def test_timeshare_paths_need_one_coefficient(capsys, argv):
    # the time-share paths read a single a* and eps; extra or missing values exit 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "one --a-star and one --eps value" in err


def test_batched_saturation_exits_3(capsys, monkeypatch):
    # one trial of a batched experiment starts on the boundary orbit of
    # test_orbit_from_range_boundary_stays_in_range
    batch = montecarlo.run_closed_loop_batch

    def boundary_trial(plant, quantizer, channels, strategies, steps, y0):
        y0 = list(y0)
        y0[5] = plant.y0_bound / 2.0
        return batch(plant, quantizer, channels, strategies, steps, y0)

    monkeypatch.setattr(montecarlo, "run_closed_loop_batch", boundary_trial)
    code, out, err = run_cli(
        capsys,
        "simulate", "--n", "1", "--a-star", "2", "--eps", "0.1", "--N", "4",
        "--trials", str(montecarlo.BATCH_MIN_TRIALS), "--steps", "400",
        "--strategy", "greedy_adversarial",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("invariant breach:")


def test_timeshare_rejects_vector_plants(capsys):
    code, _, _ = run_cli(
        capsys,
        "timeshare", "--n", "2", "--a-star", "1,2", "--eps", "0,0", "--m", "2",
    )
    assert code == 2


def test_config_file_provides_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=1\na-star=2\neps=0\np=0\n")
    code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["r_nec"] == pytest.approx(1.0, abs=1e-12)
    # explicit flags after --config win
    code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg), "--p", "0.2")
    assert code == 0
    assert json.loads(out)["r_nec"] == pytest.approx(2.0, abs=1e-12)


def test_config_file_missing_path(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--config", "/nonexistent/x.cfg")
    assert code == 2


def test_cli_deterministic_output(capsys):
    args = (
        "simulate", "--n", "1", "--a-star", "2", "--eps", "0.05", "--p", "0.1",
        "--N", "4", "--trials", "4", "--steps", "30", "--seed", "12",
        "--strategy", "iid_uniform",
    )
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert (code1, out1, err1) == (code2, out2, err2)
