import io
import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cycle_cell, eta_second_moment, kappa, reduce_traces, replay_timeshare,
                     timeshare_trial, trial_configs)
from ratelim import codec_loop, montecarlo, timeshare
from ratelim.channel import ChannelConfig, uniform01
from ratelim.cli import main
from ratelim.codec_loop import (
    BLOCK_STEPS,
    COMPLETED,
    CONVERGED,
    DIVERGED,
    QuantizerSpec,
    SaturationError,
    SimTrace,
    run_closed_loop,
    run_closed_loop_batch,
)
from ratelim.limits import necessary_bounds
from ratelim.montecarlo import Experiment, write_rows_csv
from ratelim.plant import ParamStrategy, UncertainPlant, iid_params
from ratelim.timeshare import (
    TimeShareConfig,
    deltas,
    kappa_bar,
    lossless_bound,
    min_feasible_average_level,
    power_hull,
    run_timeshare_loop,
    run_timeshare_loop_batch,
)


def test_config_validation():
    # the config holds the plant and the duration; the level and the loss come from the
    # quantizer and the channel, or from kappa_bar's caller
    assert [f.name for f in fields(TimeShareConfig)] == ["a_star", "eps", "m", "y0_bound"]
    with pytest.raises(ValueError):
        TimeShareConfig(a_star=1.5, eps=0.6, m=1)
    with pytest.raises(ValueError):
        TimeShareConfig(a_star=3.3, eps=0.025, m=0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(a_star=nan), dict(a_star=inf), dict(a_star=-inf), dict(eps=nan),
        dict(y0_bound=nan), dict(y0_bound=inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            TimeShareConfig(**{"a_star": 3.3, "eps": 0.025, "m": 2, **bad})


def test_kappa_bar_refuses_a_bad_level_or_loss_probability():
    cfg = TimeShareConfig(a_star=3.3, eps=0.025, m=2)
    for levels in (math.nan, math.inf, -math.inf, 0.5):
        with pytest.raises(ValueError, match=f"need a finite per-slot level >= 1, got {levels}"):
            kappa_bar(cfg, levels, 0.1)
    for p in (math.nan, 1.0, -0.1):
        with pytest.raises(ValueError, match=f"loss probability must be in \\[0, 1\\), got {p}"):
            kappa_bar(cfg, 4.0, p)


def test_deltas_examples():
    assert deltas(2.0, 0.0, 5) == (0.0, 0.0)
    dp, dm = deltas(2.0, 0.3, 1)
    assert dp == pytest.approx(0.3, abs=1e-15)
    assert dm == pytest.approx(0.3, abs=1e-15)
    dp, dm = deltas(3.3, 0.025, 3)
    assert dp == pytest.approx(3.325**3 - 3.3**3, abs=1e-12)
    assert dm == pytest.approx(3.3**3 - 3.275**3, abs=1e-12)
    assert (dp + dm) / 2 == pytest.approx(0.816765625, abs=1e-12)
    assert (dp + dm) / 2 < 1.0
    # negative nominal mirrors through the magnitude
    assert deltas(-3.3, 0.025, 3) == deltas(3.3, 0.025, 3)


def test_kappa_reduces_to_eta_branches_at_unit_duration():
    rng = np.random.default_rng(41)
    for _ in range(100):
        eps = rng.uniform(0.0, 0.9)
        a = rng.uniform(1.0 + eps + 0.01, 4.0)
        n = rng.uniform(2.0, 32.0)
        # all packets lost: full box growth
        assert kappa(a, eps, 1, 1.0) == pytest.approx(a + eps, abs=1e-12)
        # delivery: one-step reception factor
        assert kappa(a, eps, 1, n) == pytest.approx(
            (a + (n - 1) * eps) / n, abs=1e-12
        )
    assert kappa(2.0, 0.0, 3, 5.0) == pytest.approx(8.0 / 5.0, abs=1e-15)
    with pytest.raises(ValueError):
        kappa(2.0, 0.1, 1, 0.5)


def test_kappa_bar_matches_eta_second_moment_at_unit_duration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        eps = rng.uniform(0.0, 0.9)
        a = rng.uniform(1.0 + eps + 0.01, 4.0)
        n = rng.uniform(2.0, 32.0)
        p = rng.uniform(0.0, 0.9)
        cfg = TimeShareConfig(a_star=a, eps=eps, m=1)
        assert kappa_bar(cfg, n, p) == pytest.approx(
            eta_second_moment(a, eps, p, n), abs=1e-12
        )


def test_kappa_bar_is_the_binomial_sum_of_kappa_squared():
    # kappa_bar takes the spread once for all its terms; each term stays kappa's value
    grid = itertools.product((-2.5, 1.3, 3.3), (0.0, 0.025, 0.2), range(1, 6),
                             (0.0, 0.1, 0.5, 0.9), (1.0, 1.5, 4.0, 13**0.5, 1e6))
    for a_star, eps, m, p, level in grid:
        want = 0.0
        for s in range(m + 1):
            weight = math.comb(m, s) * (1.0 - p) ** s * p ** (m - s)
            want += weight * kappa(a_star, eps, m, level**s) ** 2
        assert kappa_bar(TimeShareConfig(a_star=a_star, eps=eps, m=m), level, p) == want


def test_kappa_bar_lossless_degenerates_to_full_resolution():
    cfg = TimeShareConfig(a_star=3.3, eps=0.025, m=2)
    kbar = kappa_bar(cfg, math.sqrt(13.0), 0.0)
    assert kbar == pytest.approx(kappa(3.3, 0.025, 2, 13.0) ** 2, abs=1e-12)
    assert kbar < 1.0


def test_kappa_bar_monte_carlo_cross_check():
    rng = np.random.default_rng(43)
    cfg, levels, p = TimeShareConfig(a_star=2.4, eps=0.15, m=3), 4, 0.2
    draws = rng.binomial(cfg.m, 1.0 - p, size=100_000)
    samples = np.array(
        [kappa(cfg.a_star, cfg.eps, cfg.m, float(levels) ** s) ** 2 for s in draws]
    )
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - kappa_bar(cfg, levels, p)) <= 3 * se


def test_lossless_bound_unit_duration_matches_one_step_limit():
    rng = np.random.default_rng(44)
    for _ in range(50):
        eps = rng.uniform(0.0, 0.9)
        a = rng.uniform(1.0 + eps + 0.01, 4.0)
        r_bar, feasible = lossless_bound(a, eps, 1)
        nb = necessary_bounds(a, eps, 0.0)
        assert feasible
        assert r_bar == pytest.approx(nb.r_nec, abs=1e-12)


def test_lossless_bound_feasibility_window():
    for m in (1, 2, 3):
        r_bar, feasible = lossless_bound(3.3, 0.025, m)
        assert feasible and math.isfinite(r_bar)
    for m in (4, 5, 8):
        r_bar, feasible = lossless_bound(3.3, 0.025, m)
        assert not feasible and math.isinf(r_bar)


def test_lossless_bound_certain_plant_duration_free():
    for m in (1, 2, 5, 9):
        r_bar, feasible = lossless_bound(2.0, 0.0, m)
        assert feasible
        assert r_bar == pytest.approx(1.0, abs=1e-12)


def test_feasibility_flips_at_real_crossing():
    a, eps = 3.3, 0.025

    def half_spread(m_real):
        return ((a + eps) ** m_real - (a - eps) ** m_real) / 2.0

    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if half_spread(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    m_star = 0.5 * (lo + hi)
    assert half_spread(m_star) == pytest.approx(1.0, abs=1e-9)
    for m in range(1, 11):
        assert lossless_bound(a, eps, m)[1] == (m <= math.floor(m_star))


def test_min_feasible_average_level_examples():
    cfg = {m: TimeShareConfig(a_star=3.3, eps=0.025, m=m) for m in (1, 2, 3, 4)}
    assert min_feasible_average_level(cfg[1], 0.0) == (4, 4.0)
    total, avg = min_feasible_average_level(cfg[2], 0.0)
    assert total == 13
    assert avg == pytest.approx(math.sqrt(13.0), abs=1e-9)
    total, avg = min_feasible_average_level(cfg[3], 0.0)
    assert total == 192
    assert avg == pytest.approx(192.0 ** (1.0 / 3.0), abs=1e-9)
    assert min_feasible_average_level(cfg[4], 0.0) is None


def test_power_hull_matches_sampled_products():
    rng = np.random.default_rng(45)
    for _ in range(200):
        eps = rng.uniform(0.0, 0.5)
        a = rng.uniform(1.0 + eps + 0.01, 3.0) * rng.choice([-1.0, 1.0])
        m = int(rng.integers(1, 5))
        hull = power_hull(a, eps, m)
        samples = np.prod(
            rng.uniform(a - eps, a + eps, size=(1000, m)), axis=1
        )
        assert samples.min() >= hull.lo - 1e-9
        assert samples.max() <= hull.hi + 1e-9
        edge = np.linspace(a - eps, a + eps, 33) ** m
        assert edge.min() == pytest.approx(hull.lo, rel=1e-12)
        assert edge.max() == pytest.approx(hull.hi, rel=1e-12)


def test_simulator_certain_plant_geometric_per_cycle():
    cfg = TimeShareConfig(a_star=2.0, eps=0.0, m=3, y0_bound=1.0)
    trace = run_timeshare_loop(
        cfg, QuantizerSpec(4), ChannelConfig(0.0, 7), ParamStrategy("nominal"), 40, 0.2
    )
    want = 2.0**3 / 4.0**3
    for k in range(len(trace) - 1):
        assert trace.sigma[k + 1] / trace.sigma[k] == pytest.approx(want, rel=1e-12)


def test_simulator_rejects_noninteger_levels_and_runs_one_level():
    # the quantizer refuses a non-integer level; at one level per slot no packet narrows the
    # cell, so sigma grows by exactly |a*|^m a cycle
    with pytest.raises(ValueError, match="quantizer needs an integer level count, got 2.5"):
        QuantizerSpec(2.5)
    cfg = TimeShareConfig(a_star=2.0, eps=0.0, m=2)
    trace = run_timeshare_loop(cfg, QuantizerSpec(1), ChannelConfig(0.0, 1),
                               ParamStrategy("nominal"), 5, 0.0)
    assert trace.sigma == [4.0**k for k in range(5)]
    assert trace.y == [0.0] * 5


def test_simulator_invariants_under_loss_and_uncertainty():
    rng = np.random.default_rng(46)
    for kind in ("nominal", "iid_uniform", "greedy_adversarial"):
        for _ in range(15):
            eps = rng.uniform(0.0, 0.06)
            a = rng.uniform(1.2 + eps, 3.5) * rng.choice([-1.0, 1.0])
            m = int(rng.integers(1, 4))
            levels = int(rng.integers(2, 5))
            p = rng.uniform(0.0, 0.4)
            cfg, quantizer = TimeShareConfig(a_star=a, eps=eps, m=m), QuantizerSpec(levels)
            channel = ChannelConfig(p=p, seed=int(rng.integers(0, 2**31)))
            strat = ParamStrategy(kind, seed=int(rng.integers(0, 2**31)))
            trace = run_timeshare_loop(cfg, quantizer, channel, strat, 60,
                                       float(rng.uniform(-0.5, 0.5)))
            assert trace.status in (COMPLETED, CONVERGED, DIVERGED)
            cycles = replay_timeshare(cfg, quantizer, channel, strat, trace)
            dp, dm = deltas(a, eps, m)
            for k, cycle in enumerate(cycles):
                # sampled output always inside the decoded cell
                assert cycle.cell.lo - 1e-12 <= trace.y[k] <= cycle.cell.hi + 1e-12
                if k + 1 < len(trace):
                    m_level = float(levels) ** cycle.received
                    ceiling = (
                        kappa(a, eps, m, m_level) * trace.sigma[k]
                        + (dp + dm) * abs(cycle.center)
                    )
                    slack = 1e-12 + 1e-12 * ceiling
                    assert trace.sigma[k + 1] <= ceiling + slack
                    if eps == 0.0:
                        assert trace.sigma[k + 1] <= (
                            kappa(a, eps, m, m_level) * trace.sigma[k] + slack
                        )



def test_simulator_overflowed_range_ends_diverged():
    # from the top cell both ends of the cycle's prediction set overflow to +inf,
    # so sigma = inf - inf is NaN: the trial ends diverged, as in the closed loop
    cfg = TimeShareConfig(a_star=1e300, eps=0.0, m=1, y0_bound=1e10)
    trace = run_timeshare_loop(cfg, QuantizerSpec(4), ChannelConfig(0.0), ParamStrategy(), 10, 4e9)
    assert (trace.status, trace.sigma) == (DIVERGED, [1e10])

def test_simulator_draws_iid_coefficients_per_sub_step():
    # slot i of cycle j reads counter m*j + i: one fresh coefficient per plant step
    cfg, quantizer = TimeShareConfig(a_star=1.6, eps=0.3, m=3), QuantizerSpec(4)
    strat = ParamStrategy("iid_uniform", seed=9)
    channel = ChannelConfig(0.2, 5)
    trace = run_timeshare_loop(cfg, quantizer, channel, strat, 40, 0.3)
    assert len(trace) > 10
    cycles = replay_timeshare(cfg, quantizer, channel, strat, trace)
    for j in range(len(trace) - 1):
        y = trace.y[j]
        for i in range(cfg.m):
            (a,) = iid_params(cfg.plant(), strat.seed, cfg.m * j + i)
            y = a * y + (cycles[j].u_end if i == cfg.m - 1 else 0.0)
        assert y == trace.y[j + 1]


def test_simulator_all_lost_cycle_hits_full_box_growth():
    cfg, quantizer = TimeShareConfig(a_star=3.3, eps=0.025, m=2, y0_bound=1.0), QuantizerSpec(4)
    channel, strategy = ChannelConfig(0.9, 11), ParamStrategy("nominal")
    trace = run_timeshare_loop(cfg, quantizer, channel, strategy, 30, 0.2)
    cycles = replay_timeshare(cfg, quantizer, channel, strategy, trace)
    hit = False
    for k in range(len(trace) - 1):
        if cycles[k].received == 0 and abs(cycles[k].center) <= trace.sigma[k] / 2:
            # range straddles zero: growth factor is exactly kappa at M=1
            ratio = trace.sigma[k + 1] / trace.sigma[k]
            assert ratio == pytest.approx(kappa(3.3, 0.025, 2, 1.0), rel=1e-12)
            hit = True
    assert hit


def _replayed(cfg, quantizer, channel, strategy, row, cycles, start) -> SimTrace:
    """A batch row as a trace, after timeshare_trial has re-derived its every bit from
    the trial's start and checked its length."""
    y, sigma, status = row
    assert len(y) == len(sigma) and 0 < len(y) <= cycles
    assert status != COMPLETED or len(y) == cycles
    assert float(y[0]).hex() == float(start).hex()
    trace = SimTrace(y.tolist(), sigma.tolist(), status)
    replay_timeshare(cfg, quantizer, channel, strategy, trace)
    return trace


def _batch_matches_oracle(cfg, quantizer, channel, strategy, y0,
                          cycles) -> list[tuple[int, str]]:
    """Run the batch and replay each trial's row by timeshare_trial; the rows' (length,
    status)."""
    rows = run_timeshare_loop_batch(cfg, quantizer, channel, strategy, cycles, y0)
    assert len(rows) == len(y0)
    for row, channel, strategy, start in zip(rows, trial_configs(channel),
                                             trial_configs(strategy), y0):
        _replayed(cfg, quantizer, channel, strategy, row, cycles, start)
    return [(len(y), status) for y, _, status in rows]


def _trials(kind: str, p: float, trials: int, sign: int = 1):
    index = np.arange(trials, dtype=np.uint64)
    channel = ChannelConfig(p, 1000 + index)
    strategy = ParamStrategy(kind, seed=2000 + index, signs=(sign,))
    # random starts, as montecarlo draws them: an orbit from a cell boundary can leave
    # the range (see the breach test)
    y0 = [uniform01(3000 + t, 0) - 0.5 for t in range(trials)]
    return channel, strategy, y0


@pytest.mark.parametrize("p", [0.0, 0.2])
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_loop_matches_scalar_loop(m, kind, p):
    # the scalar loop is the oracle's timeshare_trial
    cfg = TimeShareConfig(a_star=-1.9 if m % 2 else 1.7, eps=0.04, m=m)
    _batch_matches_oracle(cfg, QuantizerSpec(3), *_trials(kind, p, 13, sign=-1 if m > 2 else 1),
                          80)


@pytest.mark.parametrize(
    "a_star, eps, m, levels, p, cycles, y0_bound, ends",
    [
        # sigma shrinks 16-fold a cycle: every trial converges at the same cycle
        (2.0, 0.0, 2, 8, 0.0, 200, 1.0, {CONVERGED}),
        # the losses decide: some trials converge, the rest reach the horizon
        (2.0, 0.001, 2, 16, 0.5, 250, 1.0, {CONVERGED, COMPLETED}),
        # some trials diverge, the rest reach the horizon
        (4.0, 0.05, 2, 4, 0.6, 200, 1.0, {DIVERGED, COMPLETED}),
        # both ends of the first prediction set overflow: every trial diverges at once
        (1e300, 0.0, 1, 4, 0.0, 10, 1e10, {DIVERGED}),
    ],
    ids=["all_converge", "some_converge", "some_diverge", "overflow"],
)
@pytest.mark.parametrize("kind", ["nominal", "iid_uniform", "greedy_adversarial"])
def test_batched_early_exits_match_scalar_loop(monkeypatch, a_star, eps, m, levels, p, cycles,
                                               y0_bound, ends, kind):
    cfg = TimeShareConfig(a_star=a_star, eps=eps, m=m, y0_bound=y0_bound)
    channel, strategy, y0 = _trials(kind, p, 40)
    for block in (BLOCK_STEPS, 5):  # a 5-step block holds 2 cycles at m = 2
        monkeypatch.setattr(timeshare, "BLOCK_STEPS", block)
        rows = _batch_matches_oracle(cfg, QuantizerSpec(levels), channel, strategy,
                                     [y0_bound * y for y in y0], cycles)
    if kind == "nominal":
        assert {status for _, status in rows} == ends
    lengths = {length for length, _ in rows if length < cycles}
    if len(lengths) > 1:  # some leave on a block's last cycle, some mid-block
        assert {length % (5 // m) == 0 for length in lengths} == {True, False}


@st.composite
def _timeshare_batches(draw):
    eps = draw(st.floats(0.0, 0.1))
    a = draw(st.floats(1.0 + eps + 0.01, 4.0)) * draw(st.sampled_from((-1.0, 1.0)))
    m = draw(st.integers(1, 4))
    levels = draw(st.integers(2, 8))
    p = draw(st.sampled_from((0.0, draw(st.floats(0.0, 0.6)))))
    seed = draw(st.integers(0, 2**63))
    trials = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(ParamStrategy.KINDS))
    sign = draw(st.sampled_from((-1, 1)))
    seeds = seed + 2 * np.arange(trials, dtype=np.uint64)
    channel = ChannelConfig(p, seeds)
    strategy = ParamStrategy(kind, seed=seeds + 1, signs=(sign,))
    y0 = [draw(st.floats(-0.5, 0.5)) for _ in range(trials)]
    return TimeShareConfig(a_star=a, eps=eps, m=m), QuantizerSpec(levels), channel, strategy, y0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_timeshare_batches())
def test_batched_loop_property(config):
    # either no trial breaches under the scalar oracle and every row of the batch replays
    # bit for bit, or the batch raises the oracle's breach of the first trial among those
    # breaching earliest
    cfg, quantizer, channel, strategy, y0 = config
    breaches = {}
    for t, (channel_t, strategy_t, start) in enumerate(zip(trial_configs(channel),
                                                           trial_configs(strategy), y0)):
        try:
            timeshare_trial(cfg, quantizer, channel_t, strategy_t, 40, start)
        except SaturationError as exc:
            breaches[t] = exc.cycle, str(exc)
    if not breaches:
        _batch_matches_oracle(cfg, quantizer, channel, strategy, y0, 40)
        return
    with pytest.raises(SaturationError) as batched:
        run_timeshare_loop_batch(cfg, quantizer, channel, strategy, 40, y0)
    assert str(batched.value) == breaches[min(breaches, key=lambda t: (breaches[t][0], t))][1]


def test_batched_breach_names_the_first_trial_of_the_earliest_cycle():
    # dyadic starts whose orbits leave the range at m = 3 under the greedy rule:
    # 0 at cycle 12, +-1/2 at cycle 9, -1/4 at cycle 8.  The others start at random
    cfg, quantizer = TimeShareConfig(a_star=1.5, eps=0.05, m=3), QuantizerSpec(4)
    channel, strategy, y0 = _trials("greedy_adversarial", 0.0, 16)
    channels, strategies = trial_configs(channel), trial_configs(strategy)
    y0[3], y0[6], y0[9] = 0.0, -0.5, 0.5
    messages, cycles = {}, {}
    for t in (3, 6, 9, 12):
        start = -0.25 if t == 12 else y0[t]
        with pytest.raises(SaturationError) as scalar:
            timeshare_trial(cfg, quantizer, channels[t], strategies[t], 400, start)
        messages[t], cycles[t] = str(scalar.value), scalar.value.cycle
    assert len(set(messages.values())) == 4
    assert cycles == {3: 12, 6: 9, 9: 9, 12: 8}
    # trials 6 and 9 breach first, at cycle 9: the batch names trial 6, not trial 3
    with pytest.raises(SaturationError) as batched:
        run_timeshare_loop_batch(cfg, quantizer, channel, strategy, 400, y0)
    assert str(batched.value) == messages[6]
    # trial 12 breaches at cycle 8, before any lower-numbered trial
    y0[12] = -0.25
    with pytest.raises(SaturationError) as batched:
        run_timeshare_loop_batch(cfg, quantizer, channel, strategy, 400, y0)
    assert str(batched.value) == messages[12]
    y0[3] = y0[6] = y0[9] = y0[12] = 0.1
    rows = _batch_matches_oracle(cfg, quantizer, channel, strategy, y0, 400)
    assert {status for _, status in rows} == {CONVERGED}


def test_simulators_refuse_totals_past_2_pow_53():
    # 4^26 = 2^52 cells fit a double's indices; 4^27 = 2^54 and 2^54 do not
    for levels, m, ok in ((4, 26, True), (4, 27, False), (2, 54, False), (2, 10**9, False)):
        cfg = TimeShareConfig(a_star=1.2, eps=0.01, m=m)
        def run():
            return run_timeshare_loop_batch(cfg, QuantizerSpec(levels),
                                            ChannelConfig(0.1, np.ones(2, np.uint64)),
                                            ParamStrategy(seed=np.zeros(2, np.uint64)), 2, [0.1, -0.2])
        if ok:
            run()
        else:
            with pytest.raises(ValueError, match=f"--N {levels} at --m {m} gives more than 2"):
                run()


# (a*, eps, N): trials that run the whole horizon, that converge, and that diverge
M1_PLANTS = [(2.0, 0.1, 4), (-1.5, 0.02, 2**20), (20.0, 0.5, 2)]


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
def test_m1_cycles_are_closed_loop_steps_under_the_cycle_cell_rule(monkeypatch, kind, p):
    # at m = 1 a cycle is one closed-loop step of the n = 1 plant: with decode_cell swapped
    # for the cycle's cell rule, both closed-loop layouts give the time-share batch's rows
    # bit for bit, so the cell rule is all that sets the two loops apart
    monkeypatch.setattr(codec_loop, "decode_cell", cycle_cell)
    trials, steps = 160, 200
    index = np.arange(trials, dtype=np.uint64)
    channel = ChannelConfig(p, 7000 + index)
    strategy = ParamStrategy(kind, seed=8000 + index, signs=(-1,))
    y0 = [uniform01(9000 + t, 0) - 0.5 for t in range(trials)]
    ends = set()
    for a_star, eps, levels in M1_PLANTS:
        quantizer = QuantizerSpec(levels)
        plant, cfg = UncertainPlant(1, (a_star,), (eps,)), TimeShareConfig(a_star, eps, 1)
        want = [(*_row_bits(y, s), status) for y, s, status in
                run_timeshare_loop_batch(cfg, quantizer, channel, strategy, steps, y0)]
        batched = run_closed_loop_batch(plant, quantizer, channel, strategy, steps, y0)
        assert [(*_row_bits(y, s), status) for y, s, status in batched] == want
        for t, (channel_t, strategy_t) in enumerate(zip(trial_configs(channel)[:20],
                                                        trial_configs(strategy))):
            trace = run_closed_loop(plant, quantizer, channel_t, strategy_t, steps, y0[t])
            assert (*_row_bits(trace.y, trace.sigma), trace.status) == want[t]
        ends |= {status for *_, status in want}
    assert ends == {COMPLETED, CONVERGED, DIVERGED}


def _row_bits(y, sigma):
    """A row's y and sigma as float.hex, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in y], [float(v).hex() for v in sigma]


@pytest.mark.xfail(strict=True, raises=SaturationError, reason="known defect (ROADMAP item 8): "
                   "a random start drifts out of the range by rounding at 2^34 total levels")
def test_random_start_keeps_containment_at_2_pow_34_total_levels():
    # trial 930 of `simulate --m 2 --a-star 2 --eps 1e-11 --N 131072 --trials 4097 --seed 11
    # --strategy greedy_adversarial`, the only one of the 4097 that leaves the range
    # the scalar oracle leaves the range too; the runtime must raise its message
    cfg, quantizer = TimeShareConfig(a_star=2.0, eps=1e-11, m=2), QuantizerSpec(131072)
    strategy, y0 = ParamStrategy("greedy_adversarial"), 0.44195487606925443
    with pytest.raises(SaturationError) as want:
        timeshare_trial(cfg, quantizer, ChannelConfig(0.0), strategy, 100, y0)
    try:
        run_timeshare_loop(cfg, quantizer, ChannelConfig(0.0), strategy, 100, y0)
    except SaturationError as exc:
        assert str(exc) == str(want.value)
        raise


# --m 2 runs: full 100-cycle horizons at 12 and 200 trials; at 4097 trials (two batches,
# the second of one trial) a level at which trials converge within about 30 cycles keeps
# the 4097 replays short
SIMULATE_M2 = {
    12: ("--a-star", "3.3", "--eps", "0.025", "--N", "4", "--p", "0.05", "--steps", "100"),
    200: ("--a-star", "3.3", "--eps", "0.025", "--N", "4", "--p", "0.05", "--steps", "100"),
    4097: ("--a-star", "2", "--eps", "1e-6", "--N", "131072", "--p", "0.1", "--steps", "100"),
}


@pytest.mark.parametrize("trials", sorted(SIMULATE_M2))
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
def test_simulate_csv_is_identical_in_both_layouts(monkeypatch, capsys, tmp_path, trials, kind):
    # the batched CLI run against one trial at a time: every row the batches return replays
    # under the scalar oracle, and the CSV is the stacked reduction of those rows
    argv = ["simulate", "--n", "1", *SIMULATE_M2[trials], "--m", "2", "--trials", str(trials),
            "--strategy", kind, "--seed", "11"]
    if kind == "fixed_vertex":  # the one strategy that reads --signs
        argv += ["--signs", "-"]
    batches, runs = [], []
    batch = montecarlo.run_timeshare_loop_batch

    def recorded(cfg, quantizer, channel, strategy, cycles, y0):
        rows = batch(cfg, quantizer, channel, strategy, cycles, y0)
        batches.append(len(y0))
        runs.extend((cfg, quantizer, channel_t, strategy_t, row, cycles, start)
                    for channel_t, strategy_t, row, start in zip(
                        trial_configs(channel), trial_configs(strategy), rows, y0))
        return rows

    monkeypatch.setattr(montecarlo, "run_timeshare_loop_batch", recorded)
    out = tmp_path / "decay.csv"
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    assert batches == [min(trials, montecarlo.BATCH_MAX_TRIALS)] + [1] * (trials > 4096)
    traces = [_replayed(*run) for run in runs]
    want = io.StringIO()
    write_rows_csv(reduce_traces(traces, Experiment(trials=trials, steps=100)).rows(), want)
    assert out.read_bytes() == want.getvalue().encode()
    assert len(out.read_bytes().splitlines()) == 101
