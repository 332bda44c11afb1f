import math

import numpy as np
import pytest

from oracles import eta_second_moment
from ratelim.channel import ChannelConfig
from ratelim.codec_loop import COMPLETED, CONVERGED, DIVERGED
from ratelim.limits import necessary_bounds
from ratelim.plant import ParamStrategy, iid_params
from ratelim.timeshare import (
    TimeShareConfig,
    deltas,
    kappa,
    kappa_bar,
    lossless_bound,
    min_feasible_average_level,
    power_hull,
    run_timeshare_loop,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TimeShareConfig(a_star=1.5, eps=0.6, m=1, levels=2)
    with pytest.raises(ValueError):
        TimeShareConfig(a_star=3.3, eps=0.025, m=0, levels=2)
    with pytest.raises(ValueError):
        TimeShareConfig(a_star=3.3, eps=0.025, m=1, levels=2, p=1.0)
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(a_star=nan), dict(a_star=inf), dict(a_star=-inf), dict(eps=nan),
        dict(levels=nan), dict(levels=inf), dict(y0_bound=nan), dict(y0_bound=inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            TimeShareConfig(**{"a_star": 3.3, "eps": 0.025, "m": 2, "levels": 2, **bad})


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
        cfg = TimeShareConfig(a_star=a, eps=eps, m=1, levels=n, p=p)
        assert kappa_bar(cfg) == pytest.approx(
            eta_second_moment(a, eps, p, n), abs=1e-12
        )


def test_kappa_bar_lossless_degenerates_to_full_resolution():
    cfg = TimeShareConfig(a_star=3.3, eps=0.025, m=2, levels=math.sqrt(13.0), p=0.0)
    assert kappa_bar(cfg) == pytest.approx(kappa(3.3, 0.025, 2, 13.0) ** 2, abs=1e-12)
    assert kappa_bar(cfg) < 1.0


def test_kappa_bar_monte_carlo_cross_check():
    rng = np.random.default_rng(43)
    cfg = TimeShareConfig(a_star=2.4, eps=0.15, m=3, levels=4, p=0.2)
    draws = rng.binomial(cfg.m, 1.0 - cfg.p, size=100_000)
    samples = np.array(
        [kappa(cfg.a_star, cfg.eps, cfg.m, float(cfg.levels) ** s) ** 2 for s in draws]
    )
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - kappa_bar(cfg)) <= 3 * se


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
    a, eps = 3.3, 0.025
    assert min_feasible_average_level(a, eps, 0.0, 1) == (4, 4.0)
    total, avg = min_feasible_average_level(a, eps, 0.0, 2)
    assert total == 13
    assert avg == pytest.approx(math.sqrt(13.0), abs=1e-9)
    total, avg = min_feasible_average_level(a, eps, 0.0, 3)
    assert total == 192
    assert avg == pytest.approx(192.0 ** (1.0 / 3.0), abs=1e-9)
    assert min_feasible_average_level(a, eps, 0.0, 4, cap=100_000) is None


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
    cfg = TimeShareConfig(a_star=2.0, eps=0.0, m=3, levels=4, p=0.0, y0_bound=1.0)
    trace = run_timeshare_loop(
        cfg, ChannelConfig(0.0, 7), ParamStrategy("nominal"), 40, 0.2
    )
    want = 2.0**3 / 4.0**3
    for k in range(len(trace) - 1):
        assert trace.sigma[k + 1] / trace.sigma[k] == pytest.approx(want, rel=1e-12)


def test_simulator_rejects_noninteger_or_tiny_levels():
    cfg = TimeShareConfig(a_star=2.0, eps=0.0, m=2, levels=2.5, p=0.0)
    with pytest.raises(ValueError):
        run_timeshare_loop(cfg, ChannelConfig(0.0, 1), ParamStrategy("nominal"), 5, 0.0)


def test_simulator_invariants_under_loss_and_uncertainty():
    rng = np.random.default_rng(46)
    for kind in ("nominal", "iid_uniform", "greedy_adversarial"):
        for _ in range(15):
            eps = rng.uniform(0.0, 0.06)
            a = rng.uniform(1.2 + eps, 3.5) * rng.choice([-1.0, 1.0])
            m = int(rng.integers(1, 4))
            levels = int(rng.integers(2, 5))
            p = rng.uniform(0.0, 0.4)
            cfg = TimeShareConfig(
                a_star=a, eps=eps, m=m, levels=levels, p=p, y0_bound=1.0
            )
            channel = ChannelConfig(p=p, seed=int(rng.integers(0, 2**31)))
            strat = ParamStrategy(kind, seed=int(rng.integers(0, 2**31)))
            trace = run_timeshare_loop(cfg, channel, strat, 60, float(rng.uniform(-0.5, 0.5)))
            assert trace.status in (COMPLETED, CONVERGED, DIVERGED)
            dp, dm = deltas(a, eps, m)
            for k in range(len(trace)):
                # sampled output always inside the decoded cell
                assert trace.cell_lo[k] - 1e-12 <= trace.y[k] <= trace.cell_hi[k] + 1e-12
                if k + 1 < len(trace):
                    m_level = float(levels) ** trace.gamma[k]
                    ceiling = (
                        kappa(a, eps, m, m_level) * trace.sigma[k]
                        + (dp + dm) * abs(trace.center[k])
                    )
                    slack = 1e-12 + 1e-12 * ceiling
                    assert trace.sigma[k + 1] <= ceiling + slack
                    if eps == 0.0:
                        assert trace.sigma[k + 1] <= (
                            kappa(a, eps, m, m_level) * trace.sigma[k] + slack
                        )


def test_simulator_draws_iid_coefficients_per_sub_step():
    # slot i of cycle j reads counter m*j + i: one fresh coefficient per plant step
    cfg = TimeShareConfig(a_star=1.6, eps=0.3, m=3, levels=4, p=0.2)
    strat = ParamStrategy("iid_uniform", seed=9)
    trace = run_timeshare_loop(cfg, ChannelConfig(0.2, 5), strat, 40, 0.3)
    assert len(trace) > 10
    for j in range(len(trace) - 1):
        y = trace.y[j]
        for i in range(cfg.m):
            (a,) = iid_params(cfg.plant(), strat.seed, cfg.m * j + i)
            y = a * y + (trace.u[j] if i == cfg.m - 1 else 0.0)
        assert y == trace.y[j + 1]


def test_simulator_all_lost_cycle_hits_full_box_growth():
    cfg = TimeShareConfig(a_star=3.3, eps=0.025, m=2, levels=4, p=0.9, y0_bound=1.0)
    trace = run_timeshare_loop(
        cfg, ChannelConfig(0.9, 11), ParamStrategy("nominal"), 30, 0.2
    )
    hit = False
    for k in range(len(trace) - 1):
        if trace.gamma[k] == 0 and abs(trace.center[k]) <= trace.sigma[k] / 2:
            # range straddles zero: growth factor is exactly kappa at M=1
            ratio = trace.sigma[k + 1] / trace.sigma[k]
            assert ratio == pytest.approx(kappa(3.3, 0.025, 2, 1.0), rel=1e-12)
            hit = True
    assert hit
