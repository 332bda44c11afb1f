"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Expected values tagged as derived were computed from the
stated independent oracles (brute-force enumeration, exact rational
arithmetic, bisection) and frozen here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import eta_second_moment, kappa, max_cell_expansion, product_measure_cases
from ratelim.channel import ChannelConfig
from ratelim.codec_loop import QuantizerSpec
from ratelim.interval import Interval
from ratelim.limits import martins_bound, necessary_bounds, phat_bound, you_bounds
from ratelim.mjls import build_F, min_sufficient_level_real, spectral_radius
from ratelim.montecarlo import STABLE, Experiment, run_experiment
from ratelim.plant import ParamStrategy, UncertainPlant
from ratelim.timeshare import (
    TimeShareConfig,
    kappa_bar,
    lossless_bound,
    min_feasible_average_level,
)


def _report(num: int, desc: str):
    """Prints the criterion outcome; FAIL on any assertion inside."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        @property
        def elapsed(self):
            return time.monotonic() - self.t0

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num:2d}: {status} ({self.elapsed:6.1f}s) {desc}")
            return False

    return _Ctx()


def test_acceptance_01_reduction_to_certain_plant():
    with _report(1, "uncertainty-free bounds reduce to the known-plant limits"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            lam = rng.uniform(1.0 + 1e-9, 6.0)
            p_y = 1.0 / lam**2
            p = rng.uniform(0.0, p_y * 0.999999)
            nb = necessary_bounds(lam, 0.0, p)
            yb = you_bounds(lam, p)
            assert abs(nb.r_nec - yb.r_y) < 1e-12
            assert abs(nb.r_nec0 - yb.r_y) < 1e-12
            assert abs(nb.r_nec1 - yb.r_y) < 1e-12
            assert abs(nb.p_nec - yb.p_y) < 1e-12


def test_acceptance_02_interval_measure_oracle():
    with _report(2, "product measure case split equals the brute-force hull"):
        rng = np.random.default_rng(102)
        for _ in range(100_000):
            a_star = rng.uniform(-3, 3)
            eps = rng.uniform(0, 2)
            y_lo, y_hi = sorted(rng.uniform(-2, 2, size=2))
            prods = (
                (a_star - eps) * y_lo,
                (a_star - eps) * y_hi,
                (a_star + eps) * y_lo,
                (a_star + eps) * y_hi,
            )
            want = max(prods) - min(prods)
            got = product_measure_cases(a_star, eps, Interval(y_lo, y_hi))
            assert abs(got - want) < 1e-12


def test_acceptance_03_worst_cell_enumeration():
    with _report(3, "enumerated worst decoder cell equals eta * sigma exactly"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            eps = rng.uniform(0.0, 0.9)
            lam = rng.uniform(1.0 + eps + 0.01, 4.0)
            sigma = rng.uniform(0.1, 3.0)
            for n_levels in range(1, 65):
                for gamma in (0, 1):
                    got = max_cell_expansion(lam, eps, n_levels, gamma, sigma)
                    m = Fraction(n_levels) ** gamma
                    eta_exact = (
                        Fraction(lam) + max(m - 1, Fraction(1)) * Fraction(eps)
                    ) / m
                    want = float(eta_exact * Fraction(sigma))
                    assert got == want


def test_acceptance_04_scalar_equivalence_grid():
    with _report(4, "scalar spectral test matches the necessity region") as ctx:
        rng = np.random.default_rng(104)
        for _ in range(50):
            eps = rng.uniform(0.0, 0.9)
            lam = rng.uniform(1.0 + eps + 0.01, 4.0)
            plant = UncertainPlant(n=1, a_star=(lam,), eps=(eps,))
            for n_levels in range(2, 65):
                for p in np.arange(0.0, 0.46, 0.05):
                    p = float(p)
                    rho = spectral_radius(build_F(plant, n_levels, p).lifted)
                    assert abs(rho - eta_second_moment(lam, eps, p, n_levels)) < 1e-10
                    if abs(rho - 1.0) <= 1e-6:
                        continue
                    nb = necessary_bounds(lam, eps, p)
                    conj = (
                        math.log2(n_levels) > nb.r_nec1
                        and p < nb.p_nec
                        and eps < 1.0
                    )
                    assert (rho < 1.0) == conj
        assert ctx.elapsed < 10.0


def test_acceptance_05_comparison_bound_ordering():
    with _report(5, "uncertain-rate bound sits below both literature bounds"):
        lams = np.linspace(1.06, 6.0, 50)
        eps_vals = np.linspace(0.005, 0.9, 50)
        checked = 0
        for lam in lams:
            for eps in eps_vals:
                if lam - eps <= 1.0:
                    continue
                r1 = necessary_bounds(lam, eps, 0.0).r_nec1
                rp = phat_bound(lam, eps)
                rm = martins_bound(lam, eps)
                if not (math.isfinite(r1) and math.isfinite(rp) and math.isfinite(rm)):
                    continue
                assert r1 < rp
                assert r1 < rm
                checked += 1
        assert checked > 300  # the feasible region is well populated


def test_acceptance_06_rate_curves_second_order():
    with _report(6, "second-order rate curves: order, gap, and loss asymptote") as ctx:
        eps = (0.05, 0.05)
        p = 0.05
        lams = np.arange(1.5, 4.3 + 1e-9, 0.05)
        r_nec_curve = []
        r_suf_curve = []
        for lam in lams:
            plant = UncertainPlant(n=2, a_star=(1.0, float(lam)), eps=eps)
            nb = necessary_bounds(float(lam), eps[1], p)
            assert nb.feasible  # entire sweep sits left of the asymptote
            r_nec_curve.append(nb.r_nec)
            level = min_sufficient_level_real(plant, p)
            r_suf_curve.append(math.log2(level) if math.isfinite(level) else math.inf)
        # (a) both curves nondecreasing
        for a, b in zip(r_nec_curve, r_nec_curve[1:]):
            assert b >= a - 1e-12
        for a, b in zip(r_suf_curve, r_suf_curve[1:]):
            assert b >= a - 1e-6
        # (b) sufficient dominates necessary
        for rn, rs in zip(r_nec_curve, r_suf_curve):
            assert rs >= rn - 1e-9
        # (c) the gap at the reference point is about one bit
        plant2 = UncertainPlant(n=2, a_star=(1.0, 2.0), eps=eps)
        gap = math.log2(min_sufficient_level_real(plant2, p)) - necessary_bounds(
            2.0, eps[1], p
        ).r_nec
        assert gap <= 1.5
        assert 0.5 <= gap <= 1.5
        # (d) loss-limit crossing, located by bisection on the closed form
        def loss_margin(lam):
            return (1 - eps[1] ** 2) / ((lam + eps[1]) ** 2 - eps[1] ** 2) - p

        lo, hi = 4.0, 5.0
        assert loss_margin(lo) > 0 > loss_margin(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if loss_margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        # frozen from the inverted closed form sqrt((1-eps^2)/p + eps^2) - eps
        assert abs(crossing - 4.416822136597785) <= 0.001
        assert ctx.elapsed < 60.0


def test_acceptance_07_average_level_curve():
    with _report(7, "time-share level curve: feasibility window and optimum") as ctx:
        a, eps = 3.3, 0.025
        for m in (1, 2, 3):
            r_bar, feasible = lossless_bound(a, eps, m)
            assert feasible and math.isfinite(r_bar)
        for m in (4, 5, 6, 7, 8):
            r_bar, feasible = lossless_bound(a, eps, m)
            assert not feasible and math.isinf(r_bar)
        # the necessary bound on the average level only grows with duration
        bounds = [2.0 ** lossless_bound(a, eps, m)[0] for m in (1, 2, 3)]
        assert bounds[0] == min(bounds)
        assert bounds[0] < bounds[1] < bounds[2]
        # smallest feasible integer totals and their averages
        want = {1: (4, 4.0), 2: (13, math.sqrt(13.0)), 3: (192, 192.0 ** (1.0 / 3.0))}
        got = {m: min_feasible_average_level(TimeShareConfig(a, eps, m), 0.0) for m in (1, 2, 3)}
        for m, (total, avg) in want.items():
            assert got[m][0] == total
            assert abs(got[m][1] - avg) < 1e-9
        avgs = {m: got[m][1] for m in got}
        assert min(avgs, key=avgs.get) == 2  # duration two wins on feasibility
        assert ctx.elapsed < 5.0


def _random_sufficient_configs(count: int, rho_cap: float, seed: int):
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        n = int(rng.integers(1, 4))
        eps = tuple(rng.uniform(0.0, 0.2, size=n))
        a = list(rng.uniform(-1.0, 1.0, size=n))
        a[-1] = float(rng.choice([-1.0, 1.0])) * rng.uniform(1.0 + eps[-1] + 0.05, 2.6)
        p = float(rng.uniform(0.0, 0.2))
        plant = UncertainPlant(n=n, a_star=tuple(a), eps=eps, y0_bound=1.0)
        for n_levels in range(2, 65):
            rho = spectral_radius(build_F(plant, n_levels, p).lifted)
            if rho < rho_cap:
                configs.append((plant, n_levels, p, rho))
                break
    return configs


def test_acceptance_08_empirical_sufficiency():
    with _report(8, "spectral margin 0.9 is empirically stable for all strategies") as ctx:
        configs = _random_sufficient_configs(20, 0.9, seed=108)
        strategies = [
            ParamStrategy("nominal"),
            ParamStrategy("iid_uniform"),
            ParamStrategy("greedy_adversarial"),
        ]
        for idx, (plant, n_levels, p, rho) in enumerate(configs):
            signs = tuple(1 if i % 2 == 0 else -1 for i in range(plant.n))
            for strat in strategies + [ParamStrategy("fixed_vertex", signs=signs)]:
                exp = Experiment(
                    trials=200, steps=400, base_seed=1000 + idx, strategy=strat
                )
                rep = run_experiment(
                    plant, QuantizerSpec(n_levels), ChannelConfig(p=p, seed=idx), exp
                )
                assert rep.verdict == STABLE, (
                    f"config {idx} (rho={rho:.3f}, N={n_levels}, p={p:.3f}) "
                    f"not stable under {strat.kind}: slope {rep.slope:.4f}"
                )
        assert ctx.elapsed < 120.0


def _random_infeasible_configs(count: int, seed: int):
    """Scalar configs past the loss limit whose realized growth compounds.

    Past the limit the second moment grows for every level, but with
    finitely many trials the sample mean follows the typical path, so the
    configs are drawn with positive expected log-growth at the adversarial
    reception branch; that keeps the diagnostic observable at any horizon.
    """
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        eps = float(rng.uniform(0.05, 0.8))
        a = float(rng.uniform(1.0 + eps + 0.2, 4.0))
        nb = necessary_bounds(a, eps, 0.0)
        p = min(0.9, float(nb.p_nec) * float(rng.uniform(1.05, 1.5)))
        if p <= nb.p_nec:
            continue
        n_levels = int(rng.integers(2, 9))
        recv = (a + (n_levels - 1) * eps) / n_levels
        log_growth = p * math.log(a + eps) + (1 - p) * math.log(recv)
        if log_growth < 0.02:
            continue
        configs.append((a, eps, p, n_levels))
    return configs


def test_acceptance_09_empirical_necessity_direction():
    with _report(9, "past the loss limit adversarial runs never look stable"):
        configs = _random_infeasible_configs(10, seed=109)
        for idx, (a, eps, p, n_levels) in enumerate(configs):
            plant = UncertainPlant(n=1, a_star=(a,), eps=(eps,), y0_bound=1.0)
            exp = Experiment(
                trials=50,
                steps=400,
                base_seed=2000 + idx,
                strategy=ParamStrategy("greedy_adversarial"),
            )
            rep = run_experiment(
                plant, QuantizerSpec(n_levels), ChannelConfig(p=p, seed=idx), exp
            )
            assert rep.verdict != STABLE, (
                f"config {idx} (a={a:.3f}, eps={eps:.3f}, p={p:.3f} > "
                f"p_nec, N={n_levels}) was classified stable"
            )


def test_acceptance_10_cycle_moment_cross_check():
    with _report(10, "cycle growth moment: closed form vs Monte Carlo and one-step"):
        rng = np.random.default_rng(110)
        for _ in range(50):
            eps = float(rng.uniform(0.0, 0.5))
            a = float(rng.uniform(1.0 + eps + 0.05, 3.5))
            m = int(rng.integers(1, 5))
            n_levels = float(rng.integers(2, 7))
            p = float(rng.uniform(0.0, 0.5))
            closed = kappa_bar(TimeShareConfig(a_star=a, eps=eps, m=m), n_levels, p)
            draws = rng.binomial(m, 1.0 - p, size=100_000)
            per_count = np.array(
                [kappa(a, eps, m, n_levels**s) ** 2 for s in range(m + 1)]
            )
            samples = per_count[draws]
            se = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(samples.mean() - closed) <= 3 * se + 1e-12
            if m == 1:
                assert abs(closed - eta_second_moment(a, eps, p, n_levels)) < 1e-12
