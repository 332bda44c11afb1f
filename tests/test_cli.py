import contextlib
import hashlib
import io
import json
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelim import mjls, montecarlo
from ratelim.cli import _floats, main
from ratelim.plant import ParamStrategy, UncertainPlant


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


README_LAMBDA_SWEEP = (
    "sweep", "--n", "2", "--a-star", "1,1.5", "--eps", "0.05,0.05", "--p", "0.05",
    "--var", "lambda", "--range", "1.5:4.3:0.05",
)
README_MIN_N = (
    "sufficient", "--n", "2", "--a-star", "1,2.5", "--eps", "0.05,0.05", "--p", "0.05", "--min-n",
)


def test_readme_searches_keep_their_answers_without_power_iteration(capsys, monkeypatch):
    # the searches decide each level by a power-iteration probe; only a
    # reported rho comes from a solve.  Both outputs were recorded when every
    # probe still ran power iteration.
    solves = []
    solve = mjls.spectral_radius
    monkeypatch.setattr(mjls, "spectral_radius", lambda *args: solves.append(args) or solve(*args))
    code, out, _ = run_cli(capsys, *README_LAMBDA_SWEEP)
    assert code == 0
    assert solves == []
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0aeccb1623e9dbdf4a24e04ccf2a6592470521e3e3c6b6530a7d406427f1b9ff"
    )
    code, out, _ = run_cli(capsys, *README_MIN_N)
    assert code == 0
    assert len(solves) == 1
    assert json.loads(out) == {
        "n": 2, "p": 0.05, "min_N": 6, "rho": 0.9454131145810963, "sufficient": True,
    }


NEAR_EQUAL_MODULUS = (
    "sufficient", "--n", "2", "--a-star=-0.0,1.3021310772101409",
    "--eps=0.003507637168617328,0.09975728448767646", "--p", "0.18608033829235668", "--N", "22",
)


def test_a_spent_solve_answers_by_an_upper_end_below_one(capsys):
    # two lifted eigenvalues, 0.620597 and -0.620569, keep the solve from
    # closing its bracket within its budget; the least upper end it reached
    # is far below one, so it certifies the answer and is the reported rho
    code, out, _ = run_cli(capsys, *NEAR_EQUAL_MODULUS)
    assert code == 0
    answer = json.loads(out)
    assert answer["sufficient"] is True
    assert 0.62059711 <= answer["rho"] <= 0.62059726


LEVEL_SWEEP = (
    "sweep", "--n", "3", "--a-star", "0.3,-0.2,1.8", "--eps", "0.05,0.02,0.05", "--p", "0.05",
    "--var", "N", "--range", "2:64:1",
)


def test_level_sweep_keeps_its_bytes(capsys):
    # sha256 of a 63-point sweep over N at order 3, recorded when every row
    # still ran its own searches
    code, out, _ = run_cli(capsys, *LEVEL_SWEEP)
    assert code == 0
    assert len(out.splitlines()) == 64
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e88f3294729ba3964e41d4cb95df6596156f4b94a4689a55114072b1c56fb542"
    )


def test_level_sweep_searches_once(capsys, monkeypatch):
    # over N the plant and p stay fixed, so their bounds and minimal level are computed once
    calls = []
    for name in ("necessary_bounds", "min_sufficient_level_real"):
        real = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    assert run_cli(capsys, *LEVEL_SWEEP)[0] == 0
    assert calls == ["necessary_bounds", "min_sufficient_level_real"]


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


@pytest.mark.parametrize("trials", [4, 20])  # the scalar and the batched layout
@pytest.mark.parametrize("a_star, levels, p, verdict", [
    # infeasible by bounds (p_nec 0.103), though sigma[1] sits at SIGMA_MIN
    ("0,3", "2", "0.5", "unstable"),
    ("0,2", "8", "0.05", "stable"),  # spectral radius 0.573 at N = 8
])
def test_pure_delay_verdicts(capsys, tmp_path, trials, a_star, levels, p, verdict):
    # a1* = eps1 = 0: the prediction of y[1] reads only the zeros before the start
    code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--a-star", a_star, "--eps", "0,0.1",
                           "--N", levels, "--p", p, "--trials", str(trials), "--steps", "400",
                           "--out", str(tmp_path / "d.csv"))
    assert code == 0
    assert json.loads(out)["verdict"] == verdict


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


README_SIMULATE = (
    "simulate", "--n", "2", "--a-star", "1,2.5", "--eps", "0.05,0.05", "--p", "0.05", "--N", "8",
    "--steps", "400", "--seed", "7",
)
TIMESHARE_SIMULATE = (
    "simulate", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--p", "0.05", "--N", "4",
    "--m", "2", "--trials", "4", "--steps", "100", "--seed", "11",
)


def _signs(kind, signs="+,-"):
    """--signs for fixed_vertex, the one strategy that reads it."""
    return ("--signs", signs) if kind == "fixed_vertex" else ()


def _lossless(argv):
    """argv with its --p value replaced by 0."""
    at = argv.index("--p") + 1
    return (*argv[:at], "0", *argv[at + 1:])


@pytest.mark.parametrize("argv, digest", [
    pytest.param(
        (*README_SIMULATE, "--trials", "200", "--strategy", "greedy_adversarial"),
        "05c5f31517590b7297b765ab00628d98d70a312e8589110b5f17a707de443361", id="readme-batched"),
    pytest.param(
        (*README_SIMULATE, "--trials", "200", "--strategy", "iid_uniform"),
        "da1a97bb3e005f96dc9e114a9d315c93ac8c12410e067b0ebe47dd5cacf0cc7a",
        id="readme-batched-iid"),
    *(pytest.param((*README_SIMULATE, "--trials", "4", "--strategy", kind, *_signs(kind)),
                   digest, id=f"scalar-{kind}") for kind, digest in [
        ("nominal", "0ef72f36633328867faaf323070f8e101615fc03d990f0de8cca03d2ede92694"),
        ("fixed_vertex", "243cf804216b10ff893805178b9466aa22b8022b4a3379e9193f74735a43e7d9"),
        ("iid_uniform", "91e0d8ce6e1296c22e025271af64e3012631de18f8a3828715a67499322bb3bb"),
        ("greedy_adversarial", "01b49815bd8c8dfdb51ca9b4904070c38ff186706818352487d693eef2cf822f"),
    ]),
    *(pytest.param((*TIMESHARE_SIMULATE, "--strategy", kind), digest, id=f"timeshare-{kind}")
      for kind, digest in [
        ("nominal", "ac5b94dc5ae9d143dfdaf64d44057789e513fd6ed23b74b778296f31ff97205b"),
        ("iid_uniform", "e81049435e04a4df5796bff7abf17d2b0f8f24f6a8bdf7efcea16cfb62073aa7"),
        ("greedy_adversarial", "d20bc0bd687d462f00d51d24b4f7800428cd7a8af1a5612c52804d097ecbdc44"),
    ]),
    pytest.param((*TIMESHARE_SIMULATE, "--strategy", "fixed_vertex", "--signs=+"),
                 "2a018fa1d1c6007f86a3256338175a9e315cb0fcff1a877b988422b28abfac1e",
                 id="timeshare-fixed_vertex"),
    *(pytest.param((*_lossless(argv), "--strategy", kind, *_signs(kind, signs)), digest,
                   id=f"{layout}-p0-{kind}")
      for layout, argv, signs, digests in [
        ("scalar", (*README_SIMULATE, "--trials", "4"), "+,-", [
            "af5fd3a6e7250ad27ec1df780bd0d3b5213dd7b327b3211b406f3c0c3c771db2",
            "d438834680ea6aeedd0463bead80240dfe27b74ce0b1fc6562219a9b0cb51727",
            "99870d43264aa2d6128bf9b4b17de8676367a04d1ddff59a674c71501b07ea06",
            "d2e2faf7ad0fe1610fb73a55ac586d640f9f5005a3b445cd888c11f6b07a3e0c"]),
        ("batched", (*README_SIMULATE, "--trials", "200"), "+,-", [
            "8c54396d36a6b0b93bcf61c9c3cf8adb807149eee35b5c69d0fb64a67aeb38e4",
            "8964b11df23863e71cbea11ea6212a0cbf3898c8f08e08b5392fb7e7eaa7369f",
            "de634f33f3defca4166e9c4f5fcef14cdb43057c1de2b69092950aebeeeb7a7d",
            "9611a1f9faff4a3ec5a8fb38ee7dd9ab9a13274d9f6c29d49790113b30c52a22"]),
        ("timeshare", TIMESHARE_SIMULATE, "+", [
            "5e8caf9019ae99d5563e7fb7da8a46c3b757db01ab3b7a26c80f17d2b82db155",
            "fdcf5074582dd76aec9b7e8451596a3e654d7adbc76406c34a0834aad4f7beee",
            "8e3e772df387b07be592ccd9f6ae3f80826e69c50d7a382971649774deb5bf36",
            "7c4d4e5af4182e5de54a3dc89565f27257b4aa4ecdd1ab4e792541a89eb7af10"]),
      ] for kind, digest in zip(ParamStrategy.KINDS, digests)),
])
def test_seeded_decay_csvs_keep_their_bytes(capsys, tmp_path, argv, digest):
    # sha256 of each decay CSV: the README run (batched) with the greedy and the iid
    # strategy, the same run at 4 trials (the scalar loop) for every strategy, 4-trial
    # time-share runs for every strategy, and all three at loss probability 0 for every
    # strategy
    out_file = tmp_path / "decay.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


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


DURATION_FLAGS = ("sweep", "--n", "1", "--var", "m")


@pytest.mark.parametrize("argv, digest", [
    pytest.param((*DURATION_FLAGS, "--a-star", "3.3", "--eps", "0.025", "--p", "0",
                  "--range", "1:4:1"),
                 "1187ffd646d9d015bac37fc3d873825a612bc4c72f44dcaadae471bdebca8859",
                 id="readme-duration-sweep"),
    pytest.param((*DURATION_FLAGS, "--a-star", "3.3", "--eps", "0.025", "--p", "0.05",
                  "--range", "1:4:1"),
                 "3686adcfd63b5bf70e8e7e427044327555dbd4717c7bc43363a465ccbc9e9310",
                 id="lossy-duration-sweep"),
    pytest.param((*DURATION_FLAGS, "--a-star", "-2.4", "--eps", "0.05", "--p", "0.1",
                  "--range", "1:5:1"),
                 "0d8c781612ea75e4d168ca2a344c1675114d5594356dd9d12c01509a35466624",
                 id="lossy-duration-sweep-negative"),
    pytest.param(("timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0.05", "--m", "3",
                  "--N", "6"),
                 "c4d586b89f7f57afe971bcb028e2dc6b023b63ac6048dad4a1cb1b9ff91d4ef9",
                 id="lossy-level"),
    pytest.param(("timeshare", "--a-star", "2.4", "--eps", "0.15", "--p", "0.2", "--m", "3",
                  "--N", "2.5"),
                 "3a2a7389e829250064affa9ec12d1a91cd1900c17f6c61c1dc07724928a3e1f1",
                 id="lossy-real-level-infeasible"),
    pytest.param(("timeshare", "--a-star", "-1.5", "--eps", "0.1", "--p", "0.4", "--m", "1",
                  "--N", "1"),
                 "40171ac0f4255f7f180f1f29d8297506bc24ba6162031f8344bfba4ef9168bf4",
                 id="lossy-unit-level"),
    pytest.param(("timeshare", "--a-star", "3.3", "--eps", "0.025", "--p", "0.3", "--m", "4",
                  "--N", "100"),
                 "9165cd8808f054577f1386b4f64fa26a6e88e749ff7a3e71ed64331a1e4799e5",
                 id="lossy-level-infeasible-duration"),
])
def test_timeshare_answers_keep_their_bytes(capsys, argv, digest):
    # sha256 of stdout: the README duration sweep, duration sweeps at p > 0, and lossy
    # single-duration payloads with kappa_bar at a per-slot --N
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TIMESHARE_PLANT = ("--a-star", "3.3", "--eps", "0.025")
SIMULATE_M = ("simulate", "--n", "1", *TIMESHARE_PLANT, "--trials", "3", "--steps", "20")


@pytest.mark.parametrize("argv, message", [
    (("timeshare", *TIMESHARE_PLANT, "--m", "2", "--N", "nan"),
     "need a finite per-slot level >= 1, got nan"),
    (("timeshare", *TIMESHARE_PLANT, "--m", "2", "--N", "0.5"),
     "need a finite per-slot level >= 1, got 0.5"),
    # the level is refused before a search or a closed form overflows at m = 1000
    (("timeshare", *TIMESHARE_PLANT, "--m", "1000", "--N", "inf"),
     "need a finite per-slot level >= 1, got inf"),
    (("timeshare", *TIMESHARE_PLANT, "--m", "0"), "cycle duration must be >= 1, got 0"),
    (("timeshare", *TIMESHARE_PLANT, "--m", "2", "--p", "1", "--N", "nan"),
     "loss probability must be in [0, 1), got 1.0"),
    (("sweep", "--n", "1", *TIMESHARE_PLANT, "--var", "m", "--range", "1:2:1", "--p", "nan"),
     "loss probability must be in [0, 1), got nan"),
    (("sweep", "--n", "1", *TIMESHARE_PLANT, "--var", "m", "--range", "1000:1000:1", "--p", "1"),
     "loss probability must be in [0, 1), got 1.0"),
    ((*SIMULATE_M, "--m", "2", "--N", "0"), "quantizer needs 1 to 2^53 levels, got 0 for --N"),
    ((*SIMULATE_M, "--m", "0", "--N", "4"), "cycle duration must be >= 1, got 0"),
    ((*SIMULATE_M, "--m", "2", "--N", "4", "--p", "1"),
     "loss probability must be in [0, 1), got 1.0"),
    ((*SIMULATE_M, "--m", "2", "--N", "4", "--y0-bound", "1e200"),
     "Y0 = 1e+200 exceeds the divergence guard 1e+150"),
])
def test_timeshare_refusals_keep_their_messages(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "1", "--a-star", "2", "--eps", "0.1", "--N", "1", "--m", "2",
     "--trials", "20", "--steps", "50"),
    # N^m = 1 at any m, where N = 2 is refused from m = 54 on (LEVEL_ERRORS)
    (*SIMULATE_M, "--m", "60", "--N", "1"),
])
def test_timeshare_simulation_answers_at_one_level(capsys, argv):
    # one level per slot, as QuantizerSpec allows: no packet narrows the cell, so sigma grows
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("k,mean_sq_y,mean_sq_sigma\n")
    assert json.loads(err)["verdict"] == "unstable"


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


@pytest.mark.parametrize("flags, message", [
    # the table over durations is sweep --var m
    (("--m", "2", "--sweep-m", "1:2:1"), "unrecognized arguments: --sweep-m 1:2:1"),
    ((), "the following arguments are required: --m"),
])
def test_timeshare_answers_one_duration(capsys, flags, message):
    code, out, err = run_cli(capsys, "timeshare", "--a-star", "3.3", "--eps", "0.025", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and message in err


# A loop whose log mean-square sigma grows by 2.66 a step.
SLOPE_PROBE = (
    "simulate", "--n", "1", "--a-star", "5", "--eps", "0.1", "--N", "2", "--p", "0.5",
    "--trials", "3", "--steps", "100",
)


TOO_MANY_CELLS = ("simulate", "--n", "1", "--a-star", "1.2", "--eps", "0.01", "--p", "0.1",
                  "--steps", "20", "--trials", "2")
LAMBDA_SWEEP = ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "lambda",
                "--range", "2:3:1")
MIN_N = ("sufficient", "--n", "1", "--a-star", "2", "--eps", "0.1", "--min-n")
DURATION_SWEEP = ("sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--var", "m",
                  "--range", "1:2:1")
# invalid level counts, and what their messages must hold: the flags they name, or the whole message
LEVEL_ERRORS = {
    # 4^30 = 2^60 cells, and 2^54 just past 2^53: more than a double in [-1/2, 1/2] tells apart
    (*TOO_MANY_CELLS, "--N", "4", "--m", "30"): ("--N", "--m"),
    (*TOO_MANY_CELLS, "--N", "2", "--m", "54"): ("--N", "--m"),
    (*LAMBDA_SWEEP, "--N", "inf"): ("--N",),
    (*LAMBDA_SWEEP, "--N", "inf", "--empirical", "--trials", "2", "--steps", "10"): ("--N",),
    (*LAMBDA_SWEEP, "--N", "1e300", "--empirical", "--trials", "2", "--steps", "10"): ("--N",),
    # a level the command would not read: it searches the levels, or sweeps them
    (*MIN_N, "--N", "8"): ("--N", "--min-n"),
    (*MIN_N, "--N", "1"): ("--N", "--min-n"),
    (*DURATION_SWEEP, "--N", "1e300", "--y0-bound", "5"): ("--N", "--var"),
    ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "N", "--range", "2:3:1",
     "--N", "8"): ("--N", "--var"),
    # over N a refused level is a grid point of --range (--N is refused there): the
    # message names the point and --range
    ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "N", "--range", "0.5:3:0.5",
     "--empirical", "--trials", "2", "--steps", "10"): (
        "quantizer needs 1 to 2^53 levels, got 0.5 for --range",),
    ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "N", "--range", "1:3:0.5",
     "--empirical", "--trials", "2", "--steps", "10"): (
        "quantizer needs an integer level count, got 1.5 for --range",),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "2", "--a-star", "1,nan", "--eps", "0,0"),
        ("bounds", "--n", "1", "--a-star", "3", "--eps", "nan"),
        ("simulate", "--n", "1", "--a-star", "3", "--eps", "0", "--y0-bound", "nan", "--N", "4",
         "--trials", "1", "--steps", "10"),
        ("sufficient", "--n", "1", "--a-star", "inf", "--eps", "0", "--N", "4"),
        ("timeshare", "--a-star", "nan", "--eps", "0.1", "--m", "2"),
        ("timeshare", "--a-star", "inf", "--eps", "0.1", "--m", "2"),
        ("timeshare", "--a-star", "3", "--eps", "0.1", "--m", "2", "--N", "nan"),
        ("timeshare", "--a-star", "3", "--eps", "0.1", "--m", "0"),
        ("sweep", "--n", "1", "--a-star", "inf", "--eps", "0.1", "--var", "m", "--range", "1:2:1"),
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
        *LEVEL_ERRORS,
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
    for flag in LEVEL_ERRORS.get(argv, ()):
        assert flag in err
    assert not re.search(r"\d{30}", err)  # such as the 301 digits of int(1e300)


SCALAR_PLANT = ("--n", "1", "--a-star", "2", "--eps", "0.1")


# An argv that answers, flags its command does not read there, and the flag that set the
# mode the refusal names with them (None where the command has one mode, or the flag is a
# level refused for lying below 2).
@pytest.mark.parametrize("argv, flags, mode", [
    pytest.param(("bounds", *SCALAR_PLANT), ("--y0-bound", "5"), None, id="bounds-y0-bound"),
    pytest.param(("sufficient", *SCALAR_PLANT, "--N", "4"), ("--n-max", "3"), "--min-n",
                 id="sufficient-n-max"),
    pytest.param(MIN_N, ("--N", "8"), "--min-n", id="min-n-N"),
    pytest.param(("simulate", *SCALAR_PLANT, "--N", "4", "--trials", "2", "--steps", "20",
                  "--strategy", "iid_uniform"), ("--signs", "+"), "--strategy",
                 id="simulate-signs"),
    pytest.param((*LAMBDA_SWEEP, "--N", "4", "--empirical", "--trials", "2", "--steps", "10"),
                 ("--signs", "+"), "--strategy", id="empirical-signs"),
    pytest.param(LAMBDA_SWEEP, ("--trials", "3", "--strategy", "nominal"), "--empirical",
                 id="lambda-sweep-trials"),
    pytest.param(DURATION_SWEEP, ("--y0-bound", "5", "--trials", "7"), "--var",
                 id="duration-sweep-y0-bound"),
    pytest.param(DURATION_SWEEP, ("--N", "8"), "--var", id="duration-sweep-N"),
    pytest.param(DURATION_SWEEP, ("--empirical",), "--var", id="duration-sweep-empirical"),
    pytest.param(("sweep", *SCALAR_PLANT, "--var", "N", "--range", "2:3:1"), ("--N", "8"), "--var",
                 id="level-sweep-N"),
    *(pytest.param(LAMBDA_SWEEP, ("--N", level), None, id=f"lambda-sweep-N-{level}")
      for level in ("1.5", "1", "0", "-3")),
    pytest.param(("sweep", *SCALAR_PLANT, "--var", "p", "--range", "0:0.1:0.1"), ("--N", "1"),
                 None, id="p-sweep-N-1"),
    # a flag counts as given when it appears, at its default value too
    pytest.param(LAMBDA_SWEEP, ("--seed", "0", "--strategy", "iid_uniform"), "--empirical",
                 id="lambda-sweep-seed-at-default"),
    pytest.param(DURATION_SWEEP, ("--y0-bound", "1", "--steps", "400"), "--var",
                 id="duration-sweep-y0-bound-at-default"),
    pytest.param(("sufficient", *SCALAR_PLANT, "--N", "4"), ("--n-max", "4096"), "--min-n",
                 id="sufficient-n-max-at-default"),
])
def test_unread_flags_exit_2(capsys, argv, flags, mode):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, *flags)
    assert (code, out) == (2, "")
    assert flags[0] in err
    if mode is not None:
        assert mode in err



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

@pytest.mark.xfail(strict=True, reason="known defect (ROADMAP item 8): random starts "
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
        # one time-share trial costs about as much as TIMESHARE_MIN_TRIALS = 12: 12 x 83334 > 10^6
        ("simulate", "--n", "1", "--a-star", "2", "--eps", "0", "--N", "2", "--m", "2",
         "--trials", "1", "--steps", "83334"),
        ("sweep", "--n", "1", "--a-star", "2", "--eps", "0.1", "--var", "N", "--range", "2:4:1",
         "--empirical", "--trials", "1", "--steps", "333334"),
    ],
    ids=["steps", "order_30", "timeshare_m_30", "timeshare_narrow", "sweep_grid"],
)
def test_monte_carlo_work_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceed the cap" in err


@pytest.mark.parametrize(
    "var, grid",
    [
        *(pytest.param("lambda", grid, id=f"--range-{grid}") for grid in (
            "1.5:inf:1", "2:3:1e-9", "nan:2:1", "1.5:2:nan",
            "1e20:1.0000000000000002e20:1",  # a step that cannot move lo up to hi
        )),
        pytest.param("m", "1:1e9:1", id="--var-m-1:1e9:1"),
    ],
)
def test_unbounded_or_non_finite_grids_exit_2(capsys, var, grid):
    argv = ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", var)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--range", grid)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error" in err


def test_grid_step_below_the_spacing_of_doubles(capsys):
    sweep = ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", "N")
    # lo == hi is one point, however small the step
    code, out, _ = run_cli(capsys, *sweep, "--range", "1e300:1e300:1")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1e+300"]
    # a step that cannot move lo towards hi
    code, out, err = run_cli(capsys, *sweep, "--range", "1e300:1.0000000000000002e300:1")
    assert code == 2
    assert out == ""
    assert "step 1.0 is below the spacing of doubles" in err
    # a step that moves the double but not the 12 significant digits a point keeps
    code, out, err = run_cli(capsys, *sweep, "--range", "2:2.000000000005:1e-12")
    assert code == 2
    assert out == ""
    assert "step 1e-12 is below the 12 significant digits kept at 2.0" in err


@pytest.mark.parametrize("var, grid, want", [
    # points far below 1 keep their own digits
    ("p", "0:4e-13:1e-13", ["0.0", "1e-13", "2e-13", "3e-13", "4e-13"]),
    ("p", "1e-13:1e-13:1", ["1e-13"]),
    # points far above 1 carry no rounding noise such as 469.200000000001
    ("lambda", "2:1000:7.3", [repr(round(2 + 7.3 * i, 9)) for i in range(137)]),
])
def test_grid_points_keep_12_significant_digits(capsys, var, grid, want):
    sweep = ("sweep", "--n", "1", "--a-star", "3", "--eps", "0.1", "--var", var)
    code, out, _ = run_cli(capsys, *sweep, "--range", grid)
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert [row[0] for row in rows] == want
    if var == "p":  # each row is evaluated at its own point, not at p = 0
        assert len({row[1] for row in rows}) == len(rows)


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
    y0 = [(0.0, 10.0)] if command == "simulate" else []  # the one that reads --y0-bound
    values = draw(_numbers([(-5.0, 5.0)] * (n - 1) + [(2.0, 5.0)] + [(0.0, 1.0)] * (n + 1) + y0))
    argv = [command, "--n", str(n), _flag("a-star", values[:n]), _flag("eps", values[n : 2 * n]),
            _flag("p", values[2 * n : 2 * n + 1])]
    if y0:
        argv.append(_flag("y0-bound", values[-1:]))
    return tuple(argv)


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
        ("sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025,0.5", "--var", "m",
         "--range", "1:2:1"),
        ("timeshare", "--a-star", ",", "--eps", "0.025", "--m", "2"),
        ("sweep", "--n", "1", "--a-star", "3.3,5", "--eps", "0.025", "--var", "m",
         "--range", "1:2:1"),
    ],
)
def test_timeshare_paths_need_one_coefficient(capsys, argv):
    # the time-share paths read a single a* and eps; extra or missing values exit 2
    flags = dict(zip(argv[1::2], argv[2::2]))
    plant = (int(flags.get("--n", "1")), _floats(flags["--a-star"]), _floats(flags["--eps"]))
    assert run_cli(capsys, *argv) == (2, "", plant_refusal(*plant))


def plant_refusal(n, a_star, eps) -> str:
    """What the CLI prints on these plant flags: the message of UncertainPlant's ValueError."""
    with pytest.raises(ValueError) as exc:
        UncertainPlant(n=n, a_star=a_star, eps=eps)
    return f"error: {exc.value}\n"


@pytest.mark.parametrize("command", [
    pytest.param(("bounds",), id="bounds"),
    pytest.param(("sufficient", "--N", "4"), id="sufficient"),
    pytest.param(("simulate", "--N", "4", "--trials", "2", "--steps", "10"), id="simulate"),
    pytest.param(("simulate", "--N", "4", "--m", "2", "--trials", "2", "--steps", "10"),
                 id="simulate-m"),
    pytest.param(("sweep", "--var", "lambda", "--range", "2:3:1"), id="sweep"),
    pytest.param(("sweep", "--var", "m", "--range", "1:2:1"), id="sweep-m"),
    pytest.param(("timeshare", "--m", "2"), id="timeshare"),
])
@pytest.mark.parametrize("n, a_star, eps", [
    pytest.param(2, "2", "0.1", id="order-above-counts"),
    pytest.param(1, "2,3", "0.1", id="extra-coefficient"),
    pytest.param(1, "2", "0.1,0.2", id="extra-radius"),
])
def test_mismatched_plant_prints_the_plants_message(capsys, command, n, a_star, eps):
    # UncertainPlant is the one check of the plant's shape, on every command that builds one
    flags = ("--n", str(n), "--a-star", a_star, "--eps", eps)
    assert run_cli(capsys, command[0], *flags, *command[1:]) == (
        2, "", plant_refusal(n, _floats(a_star), _floats(eps)))


@pytest.mark.parametrize("argv, what", [
    (("simulate", "--N", "4", "--m", "2", "--trials", "2", "--steps", "10"),
     "time-sharing simulation"),
    (("sweep", "--var", "m", "--range", "1:2:1"), "a duration sweep"),
    (("timeshare", "--m", "2"), "time-sharing analysis"),
])
def test_timeshare_paths_refuse_a_higher_order_plant(capsys, argv, what):
    plant = ("--n", "2", "--a-star", "0.5,2", "--eps", "0,0.1")  # a valid order-2 plant
    assert run_cli(capsys, argv[0], *plant, *argv[1:]) == (
        2, "", f"error: {what} needs a scalar plant, got --n 2\n")


def test_batched_saturation_exits_3(capsys, monkeypatch):
    # one trial of a batched experiment starts on the boundary orbit of
    # test_orbit_from_range_boundary_stays_in_range
    batch = montecarlo.run_closed_loop_batch

    def boundary_trial(plant, quantizer, channel, strategy, steps, y0):
        y0 = list(y0)
        y0[5] = plant.y0_bound / 2.0
        return batch(plant, quantizer, channel, strategy, steps, y0)

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


def test_config_entry_counts_as_a_given_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=0\n")
    assert run_cli(capsys, *LAMBDA_SWEEP, "--config", str(cfg)) == (
        2, "", "error: --seed is not read without --empirical\n")


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


def test_sweep_duration_has_no_empirical_column(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025",
        "--var", "m", "--range", "1:2:1", "--empirical",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --empirical is not read with --var m")


def test_order_cap_names_the_spectral_test(capsys):
    code, out, err = run_cli(
        capsys,
        "sufficient", "--n", "7", "--a-star", "0,0,0,0,0,0,2", "--eps", "0,0,0,0,0,0,0.1",
        "--p", "0.1", "--N", "4",
    )
    assert (code, out) == (2, "")
    assert err == "error: the spectral sufficiency test is capped at order 6, got 7\n"
