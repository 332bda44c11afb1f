import json
import math

import pytest

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
    ],
)
def test_invalid_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
