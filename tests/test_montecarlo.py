import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import eta_second_moment
from ratelim import codec_loop, montecarlo
from ratelim.channel import ChannelConfig, derive_seed
from ratelim.codec_loop import BLOCK_STEPS, QuantizerSpec
from ratelim.limits import necessary_bounds
from ratelim.montecarlo import (
    BATCH_MIN_TRIALS,
    STABLE,
    UNSTABLE,
    DecayReport,
    Experiment,
    _trial_setup,
    run_experiment,
    sweep,
    sweep_timeshare,
    write_rows_csv,
)
from ratelim.plant import ParamStrategy, UncertainPlant
from ratelim.timeshare import TimeShareConfig


def test_experiment_validation():
    with pytest.raises(ValueError):
        Experiment(trials=0, steps=100)
    with pytest.raises(ValueError):
        Experiment(trials=5, steps=1)


def test_reproducibility_bit_identical():
    plant = UncertainPlant(n=2, a_star=(0.5, 2.2), eps=(0.05, 0.05))
    exp = Experiment(trials=20, steps=80, base_seed=77, strategy=ParamStrategy("iid_uniform"))
    ch = ChannelConfig(p=0.1, seed=3)
    r1 = run_experiment(plant, QuantizerSpec(8), ch, exp)
    r2 = run_experiment(plant, QuantizerSpec(8), ch, exp)
    assert np.array_equal(r1.mean_sq_sigma, r2.mean_sq_sigma)
    assert np.array_equal(r1.mean_sq_y, r2.mean_sq_y)
    assert r1.slope == r2.slope and r1.verdict == r2.verdict


BASE_SEEDS = (-1, 0, 2**63, 2**64 - 1, 2**70)  # negative, wrapped and wider than 64 bits


@settings(max_examples=200, deadline=None, derandomize=True)
@given(base=st.one_of(st.sampled_from(BASE_SEEDS), st.integers(-2**70, 2**70)),
       trials=st.lists(st.one_of(st.sampled_from((0, 1, 2**32 - 1, 2**32)),
                                 st.integers(0, 2**32)), min_size=1, max_size=6),
       timeshare=st.booleans(), y0_bound=st.floats(1e-3, 1e3))
def test_seed_arrays_give_each_trial_the_int_calls_bits(base, trials, timeshare, y0_bound):
    # derive_seed and _trial_setup on a uint64 array of trials give each entry the seeds
    # and start of the int call, with no numpy overflow warning
    target = (TimeShareConfig(2.0, 0.05, 2, y0_bound) if timeshare
              else UncertainPlant(2, (0.5, 2.2), (0.05, 0.05), y0_bound))
    channel = ChannelConfig(0.2, seed=5)
    exp = Experiment(trials=1, steps=2, base_seed=base,
                     strategy=ParamStrategy("fixed_vertex", seed=9, signs=(1, -1)))
    index = np.array(trials, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = derive_seed(base, index)
        ch, strat, y0 = _trial_setup(target, channel, exp, index)
        want = [_trial_setup(target, channel, exp, trial) for trial in trials]
    assert seeds.dtype == ch.seed.dtype == strat.seed.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(base, trial) for trial in trials]
    assert ch.seed.tolist() == [w_ch.seed for w_ch, _, _ in want]
    assert strat.seed.tolist() == [w_strat.seed for _, w_strat, _ in want]
    assert [float(v).hex() for v in y0] == [w_y0.hex() for _, _, w_y0 in want]
    assert (ch.p, strat.kind, strat.signs) == (0.2, "fixed_vertex", (1, -1))


def test_deterministic_decay_slope_matches_closed_form():
    # certain scalar plant, lossless: sigma halves every step so the
    # mean-square slope is exactly log(1/4)
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    exp = Experiment(trials=10, steps=120, base_seed=1, strategy=ParamStrategy("nominal"))
    rep = run_experiment(plant, QuantizerSpec(4), ChannelConfig(0.0, 2), exp)
    assert rep.verdict == STABLE
    assert rep.slope == pytest.approx(math.log(0.25), abs=1e-9)


def test_zero_rate_is_unstable():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    exp = Experiment(trials=5, steps=300, base_seed=1, strategy=ParamStrategy("nominal"))
    rep = run_experiment(plant, QuantizerSpec(1), ChannelConfig(0.0, 2), exp)
    assert rep.verdict == UNSTABLE
    assert rep.slope == pytest.approx(2 * math.log(2.1), abs=1e-9)
    # a longer horizon pushes sigma past the divergence guard
    exp_long = Experiment(trials=5, steps=520, base_seed=1, strategy=ParamStrategy("nominal"))
    rep_long = run_experiment(plant, QuantizerSpec(1), ChannelConfig(0.0, 2), exp_long)
    assert rep_long.verdict == UNSTABLE
    assert rep_long.diverged_trials == 5


def test_second_moment_boundary_case():
    # certain plant at p = 1/N^2 exactly: E[eta^2] = 1, so the true second
    # moment is constant.  The sample mean over finitely many trials tracks
    # the typical path, which decays, so the empirical verdict cannot be
    # unstable and no trial diverges.
    assert eta_second_moment(2.0, 0.0, 0.2, 4.0) == pytest.approx(1.0, abs=1e-15)
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    exp = Experiment(trials=100, steps=400, base_seed=9, strategy=ParamStrategy("nominal"))
    rep = run_experiment(plant, QuantizerSpec(4), ChannelConfig(0.2, 4), exp)
    assert rep.verdict != UNSTABLE
    assert rep.diverged_trials == 0


def test_timeshare_experiment_dispatch():
    cfg = TimeShareConfig(a_star=3.3, eps=0.025, m=2, y0_bound=1.0)
    exp = Experiment(trials=10, steps=60, base_seed=4, strategy=ParamStrategy("iid_uniform"))
    rep = run_experiment(cfg, QuantizerSpec(4), ChannelConfig(0.0, 6), exp)
    assert rep.verdict == STABLE
    # per-cycle contraction: kappa(13)^2 comfortably below one


def test_sweep_lambda_rows_and_asymptote():
    plant = UncertainPlant(n=2, a_star=(1.0, 2.0), eps=(0.05, 0.05))
    lams = [1.5, 2.0, 3.0, 4.0]
    rows = sweep(plant, "lambda", lams, channel_p=0.05)
    assert [r["lambda"] for r in rows] == lams
    assert all(set(r) == {"lambda", "r_nec0", "r_nec1", "r_nec", "p_nec", "rho", "min_N", "verdict"} for r in rows)
    r_necs = [r["r_nec"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(r_necs, r_necs[1:]))
    suff = [math.log2(r["min_N"]) for r in rows]
    for r_suf, r_nec in zip(suff, r_necs):
        assert r_suf >= r_nec - 1e-9
    # the loss limit crosses p = 0.05 at the known magnitude
    eps = 0.05
    lam_star = math.sqrt((1 - eps**2) / 0.05 + eps**2) - eps
    below = necessary_bounds(lam_star - 0.01, eps, 0.05)
    above = necessary_bounds(lam_star + 0.01, eps, 0.05)
    assert below.feasible and not above.feasible


def test_sweep_n_variable_tracks_rho():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    rows = sweep(plant, "N", [2, 3, 4, 8], channel_p=0.0)
    rhos = [r["rho"] for r in rows]
    assert rhos[0] == pytest.approx(1.1025, abs=1e-10)
    assert all(b <= a for a, b in zip(rhos, rhos[1:]))


def test_sweep_p_variable():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    rows = sweep(plant, "p", [0.0, 0.1, 0.2, 0.25], n_levels=4)
    assert rows[0]["rho"] == pytest.approx(0.25, abs=1e-12)
    assert rows[2]["rho"] == pytest.approx(1.0, abs=1e-10)  # E[eta^2] = 1 at N=4
    assert rows[2]["min_N"] == pytest.approx(4.0, abs=1e-6)
    assert math.isinf(rows[3]["min_N"])  # p = p_nec exactly: no level works


def test_sweep_rejects_unknown_variable():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    with pytest.raises(ValueError):
        sweep(plant, "sigma", [1.0])


def test_sweep_empirical_verdict_column():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    exp = Experiment(trials=5, steps=60, base_seed=2, strategy=ParamStrategy("nominal"))
    rows = sweep(plant, "lambda", [2.0], channel_p=0.0, n_levels=4, empirical=exp)
    assert rows[0]["verdict"] == STABLE


def test_sweep_timeshare_columns_and_blowup():
    rows = sweep_timeshare(3.3, 0.025, [1, 2, 3, 4])
    assert [r["m"] for r in rows] == [1, 2, 3, 4]
    assert all(
        list(r)
        == [
            "m",
            "delta_plus",
            "delta_minus",
            "kappa_bar",
            "r_bar",
            "feasible",
            "min_total_level",
            "avg_level",
        ]
        for r in rows
    )
    assert [r["feasible"] for r in rows] == [True, True, True, False]
    assert [r["min_total_level"] for r in rows] == [4, 13, 192, ""]
    assert math.isinf(rows[3]["r_bar"])


def test_write_rows_csv_layout():
    import io

    rows = sweep_timeshare(3.3, 0.025, [1, 2])
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",")[0] == "m"
    assert len(lines) == 3


# the cells a table holds: floats at the edges of repr, ints, bools and the empty cell
EDGE_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0]
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
CELLS = FLOATS | st.integers(-2**64, 2**64) | st.booleans() | st.just("") | st.sampled_from(
    [STABLE, UNSTABLE, "inconclusive"])
SCHEMAS = [  # the decay table, the lambda, p and N sweeps and the duration sweep
    ("k", "mean_sq_y", "mean_sq_sigma"),
    *[(var, "r_nec0", "r_nec1", "r_nec", "p_nec", "rho", "min_N", "verdict")
      for var in ("lambda", "p", "N")],
    ("m", "delta_plus", "delta_minus", "kappa_bar", "r_bar", "feasible", "min_total_level",
     "avg_level"),
]


def _csv(writer, table) -> bytes:
    buf = io.StringIO()
    writer(table, buf)
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_writer_keeps_the_row_by_row_bytes(data):
    # every schema and every kind of cell: the same bytes as the row-by-row writer
    cols = data.draw(st.sampled_from(SCHEMAS))
    rows = data.draw(st.lists(st.tuples(*[CELLS] * len(cols)), max_size=30))
    table = [dict(zip(cols, row)) for row in rows]
    assert _csv(write_rows_csv, table) == _csv(oracles.write_rows_csv, table)
    # a decay report's own table (at least 2 steps), whose cells are its means' Python floats
    steps = data.draw(st.integers(2, 30))
    y, s = (np.array(data.draw(st.lists(FLOATS, min_size=steps, max_size=steps)))
            for _ in range(2))
    report = DecayReport(y, s, 0.0, STABLE, 0, 0)
    decay = [{"k": k, "mean_sq_y": a, "mean_sq_sigma": b}
             for k, (a, b) in enumerate(zip(y.tolist(), s.tolist()))]
    assert _csv(write_rows_csv, report.rows()) == _csv(oracles.write_rows_csv, decay)


@pytest.mark.parametrize(
    "target, quantizer, channel, exp",
    [
        *[
            (
                UncertainPlant(n=2, a_star=(0.5, 2.2), eps=(0.05, 0.05)),
                QuantizerSpec(8),
                ChannelConfig(p=0.1, seed=3),
                Experiment(
                    trials=12,
                    steps=80,
                    base_seed=77,
                    strategy=ParamStrategy(kind, signs=(1, -1)),
                ),
            )
            for kind in ParamStrategy.KINDS
        ],
        # time-share protocol, m = 2
        (
            TimeShareConfig(a_star=3.3, eps=0.025, m=2),
            QuantizerSpec(4),
            ChannelConfig(p=0.05, seed=6),
            Experiment(trials=10, steps=60, base_seed=4),
        ),
        # sigma falls below the convergence floor long before the horizon
        (
            UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,)),
            QuantizerSpec(64),
            ChannelConfig(p=0.0, seed=2),
            Experiment(trials=6, steps=200, base_seed=1, strategy=ParamStrategy("nominal")),
        ),
        # every trial passes the divergence guard before the horizon
        (
            UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,)),
            QuantizerSpec(1),
            ChannelConfig(p=0.0, seed=2),
            Experiment(trials=5, steps=520, base_seed=1, strategy=ParamStrategy("nominal")),
        ),
    ],
)
def test_trial_order_sums_match_stacked_reduction(target, quantizer, channel, exp):
    got = run_experiment(target, quantizer, channel, exp)
    want = oracles.run_experiment(target, quantizer, channel, exp)
    assert np.array_equal(got.mean_sq_y, want.mean_sq_y, equal_nan=True)
    assert np.array_equal(got.mean_sq_sigma, want.mean_sq_sigma, equal_nan=True)
    assert got.slope == want.slope
    assert got.verdict == want.verdict
    assert got.diverged_trials == want.diverged_trials
    assert got.converged_trials == want.converged_trials


def _assert_same_report(got, want):
    assert np.array_equal(got.mean_sq_y, want.mean_sq_y, equal_nan=True)
    assert np.array_equal(got.mean_sq_sigma, want.mean_sq_sigma, equal_nan=True)
    assert got.slope == want.slope
    assert got.verdict == want.verdict
    assert got.diverged_trials == want.diverged_trials
    assert got.converged_trials == want.converged_trials


def _count_batches(monkeypatch) -> list:
    """Record each closed-loop batch's arguments; args[5], its y0, holds one start a trial."""
    calls = []
    batch = montecarlo.run_closed_loop_batch
    monkeypatch.setattr(
        montecarlo, "run_closed_loop_batch", lambda *args: calls.append(args) or batch(*args)
    )
    return calls


PARITY_PLANTS = {
    1: UncertainPlant(n=1, a_star=(2.2,), eps=(0.1,)),
    2: UncertainPlant(n=2, a_star=(0.5, 2.2), eps=(0.05, 0.05)),
    3: UncertainPlant(n=3, a_star=(0.3, -0.4, 2.0), eps=(0.05, 0.1, 0.05)),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
def test_batched_experiment_matches_scalar_oracle(monkeypatch, kind, n):
    # one trial below the crossover runs scalar, the crossover and 200 trials batched;
    # both are bit-identical to the stacked reduction over scalar traces
    calls = _count_batches(monkeypatch)
    strategy = ParamStrategy(kind, signs=(1, -1, 1)[:n])
    runs = [(trials, p, 80) for trials in (BATCH_MIN_TRIALS - 1, BATCH_MIN_TRIALS) for p in (0.0, 0.2)]
    runs += [(200, p, 40) for p in (0.0, 0.2)]
    for trials, p, steps in runs:
        setup = (PARITY_PLANTS[n], QuantizerSpec(6), ChannelConfig(p=p, seed=n))
        exp = Experiment(trials=trials, steps=steps, base_seed=7 * n + trials, strategy=strategy)
        _assert_same_report(run_experiment(*setup, exp), oracles.run_experiment(*setup, exp))
    assert [len(args[5]) for args in calls] == [BATCH_MIN_TRIALS, BATCH_MIN_TRIALS, 200, 200]


@pytest.mark.parametrize(
    "plant, levels, p, steps, exits",
    [
        # sigma shrinks 32-fold a step: every trial converges at the same step
        (UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,)), 64, 0.0, 200,
         lambda r: r.converged_trials == 30),
        # one level never contracts: every trial diverges
        (UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,)), 1, 0.0, 520,
         lambda r: r.diverged_trials == 30),
        # the loss sequence decides: some trials converge, the rest reach the horizon
        (UncertainPlant(n=1, a_star=(2.0,), eps=(0.05,)), 64, 0.5, 250,
         lambda r: 0 < r.converged_trials < 30 and r.diverged_trials == 0),
        # some trials diverge, the rest reach the horizon
        (UncertainPlant(n=1, a_star=(8.0,), eps=(0.05,)), 4096, 0.9, 280,
         lambda r: 0 < r.diverged_trials < 30 and r.converged_trials == 0),
    ],
    ids=["all_converge", "all_diverge", "some_converge", "some_diverge"],
)
def test_batched_early_exits_match_scalar_oracle(monkeypatch, plant, levels, p, steps, exits):
    calls = _count_batches(monkeypatch)
    setup = (plant, QuantizerSpec(levels), ChannelConfig(p=p, seed=1))
    exp = Experiment(trials=30, steps=steps, base_seed=3, strategy=ParamStrategy("nominal"))
    want = oracles.run_experiment(*setup, exp)
    assert exits(want)
    for block in (BLOCK_STEPS, 5):
        monkeypatch.setattr(codec_loop, "BLOCK_STEPS", block)
        _assert_same_report(run_experiment(*setup, exp), want)
    assert len(calls) == 2
    _assert_exits_split_blocks(setup, exp)


@pytest.mark.parametrize(
    "plant, levels, p, steps",
    [
        (UncertainPlant(n=1, a_star=(2.0,), eps=(0.05,)), 64, 0.5, 250),
        (UncertainPlant(n=1, a_star=(8.0,), eps=(0.05,)), 4096, 0.9, 250),
    ],
    ids=["some_converge", "some_diverge"],
)
def test_batched_iid_early_exits_match_scalar_oracle(monkeypatch, plant, levels, p, steps):
    # trials leave the batch mid-run; their strategy seeds and their rows of the block's
    # flag and coefficient tables must leave with them
    setup = (plant, QuantizerSpec(levels), ChannelConfig(p=p, seed=1))
    exp = Experiment(trials=30, steps=steps, base_seed=3, strategy=ParamStrategy("iid_uniform"))
    want = oracles.run_experiment(*setup, exp)
    assert 0 < want.converged_trials + want.diverged_trials < 30
    for block in (BLOCK_STEPS, 5):
        monkeypatch.setattr(codec_loop, "BLOCK_STEPS", block)
        _assert_same_report(run_experiment(*setup, exp), want)
    _assert_exits_split_blocks(setup, exp)


def _assert_exits_split_blocks(setup, exp):
    """Trials that leave the batch at different steps leave, in 5-step blocks, both on a
    block's last step (the next block is drawn without them) and mid-block (the block's
    tables are cut)."""
    traces = [oracles._run_trial(*setup, exp, t) for t in range(exp.trials)]
    lengths = {len(trace) for trace in traces if len(trace) < exp.steps}
    if len(lengths) > 1:
        assert {n % 5 == 0 for n in lengths} == {True, False}


def test_wide_experiments_run_in_bounded_batches(monkeypatch):
    # at most BATCH_MAX_TRIALS trials per batch, the last one shorter; the
    # sums still run in trial order and the iid streams stay per trial
    monkeypatch.setattr(montecarlo, "BATCH_MAX_TRIALS", 5)
    calls = _count_batches(monkeypatch)
    setup = (PARITY_PLANTS[2], QuantizerSpec(6), ChannelConfig(p=0.2, seed=4))
    exp = Experiment(trials=13, steps=80, base_seed=9, strategy=ParamStrategy("iid_uniform"))
    _assert_same_report(run_experiment(*setup, exp), oracles.run_experiment(*setup, exp))
    assert [len(args[5]) for args in calls] == [5, 5, 3]


def test_timeshare_experiment_reads_one_loss_probability():
    # the batch draws its losses from the channel, the one place the loss probability lives
    cfg = TimeShareConfig(a_star=2.0, eps=0.05, m=2)
    report = run_experiment(cfg, QuantizerSpec(3), ChannelConfig(0.6), Experiment(20, 50))
    assert report.verdict == UNSTABLE
