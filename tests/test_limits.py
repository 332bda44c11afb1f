import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import branch_loss_limits, eta, eta_second_moment, max_cell_expansion
from ratelim.limits import martins_bound, necessary_bounds, phat_bound, you_bounds


def bisect_threshold(f, lo, hi, tol=1e-12, iters=200):
    """Root of a decreasing-through-zero function on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_necessary_bounds_certain_plant():
    nb = necessary_bounds(2.0, 0.0, 0.0)
    assert nb.r_nec == pytest.approx(1.0, abs=1e-12)
    assert nb.p_nec == pytest.approx(0.25, abs=1e-12)
    assert nb.feasible


def test_necessary_bounds_uncertain_plant():
    nb = necessary_bounds(2.0, 0.1, 0.0)
    assert nb.r_nec1 == pytest.approx(math.log2(1.9 / 0.9), abs=1e-12)
    assert nb.p_nec == pytest.approx(0.99 / 4.4, abs=1e-12)
    assert nb.r_nec == max(nb.r_nec0, nb.r_nec1)


def test_necessary_bounds_infeasible_at_unit_uncertainty():
    for p in (0.0, 0.1, 0.5):
        nb = necessary_bounds(2.0, 1.0, p)
        assert not nb.feasible
    nb = necessary_bounds(2.0, 1.5, 0.0)
    assert not nb.feasible and nb.p_nec <= 0.0


def test_necessary_bounds_infinite_past_loss_limit():
    nb = necessary_bounds(2.0, 0.1, 0.3)  # p > p_nec = 0.225
    assert not nb.feasible
    assert math.isinf(nb.r_nec)


def test_necessary_bounds_validation():
    with pytest.raises(ValueError):
        necessary_bounds(0.9, 0.0, 0.0)
    with pytest.raises(ValueError):
        necessary_bounds(2.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        necessary_bounds(2.0, 0.1, 1.0)


def test_you_bounds_examples():
    assert you_bounds(2.0, 0.0) == pytest.approx((1.0, 0.25))
    r, p_y = you_bounds(2.0, 0.2)
    assert r == pytest.approx(2.0, abs=1e-12)
    assert p_y == 0.25
    assert math.isinf(you_bounds(2.0, 0.25).r_y)
    with pytest.raises(ValueError):
        you_bounds(1.0, 0.1)


def test_reduction_to_certain_plant_bounds():
    rng = np.random.default_rng(21)
    for _ in range(100):
        lam = rng.uniform(1.01, 6.0)
        p = rng.uniform(0.0, 1.0 / lam**2 * 0.999)
        nb = necessary_bounds(lam, 0.0, p)
        yb = you_bounds(lam, p)
        assert nb.r_nec == pytest.approx(yb.r_y, abs=1e-12)
        assert nb.p_nec == pytest.approx(yb.p_y, abs=1e-12)


def test_phat_and_martins_examples():
    assert phat_bound(2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert phat_bound(2.0, 0.05) == pytest.approx(
        math.log2(1.8975 / 0.745), abs=1e-12
    )
    assert math.isinf(phat_bound(2.0, 0.2))  # denominator 1 - 0.2*5.4 < 0
    assert martins_bound(2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert martins_bound(2.0, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert math.isinf(martins_bound(2.0, 1.0))


CLOSED_FORMS = [
    pytest.param(necessary_bounds, (2.0, 0.1, 0.1), id="necessary_bounds"),  # lambda, eps, p
    pytest.param(you_bounds, (2.0, 0.1), id="you_bounds"),  # lambda, p
    pytest.param(phat_bound, (2.0, 0.1), id="phat_bound"),  # lambda, eps
    pytest.param(martins_bound, (2.0, 0.1), id="martins_bound"),  # lambda, eps
]


@pytest.mark.parametrize("form, args", CLOSED_FORMS)
def test_closed_forms_refuse_nan_and_inf(form, args):
    form(*args)  # answers at the finite point
    for i in range(len(args)):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"got {bad}$"):
                form(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("form, args", CLOSED_FORMS)
def test_closed_forms_refuse_lambda_inside_the_unit_circle(form, args):
    # every bound assumes an unstable plant, |lambda| > 1
    for lam in (1.0, 0.5, -1.0, -0.5):
        with pytest.raises(ValueError, match=rf"need \|lambda\| > 1, got {abs(lam)}$"):
            form(lam, *args[1:])


def test_comparison_bounds_are_more_conservative():
    # strict ordering holds for positive uncertainty wherever all three
    # bounds are finite
    for lam in np.linspace(1.3, 5.0, 25):
        for eps in np.linspace(0.01, 0.9, 25):
            if lam - eps <= 1.0:
                continue
            r1 = necessary_bounds(lam, eps, 0.0).r_nec1
            rp = phat_bound(lam, eps)
            rm = martins_bound(lam, eps)
            if math.isfinite(rp):
                assert r1 < rp
            if math.isfinite(rm):
                assert r1 < rm


def test_eta_second_moment_examples():
    assert eta_second_moment(2.0, 0.1, 0.0, 2.0) == pytest.approx(1.1025, abs=1e-12)
    want = 0.5 * 2.1**2 + 0.5 * (2.3 / 4.0) ** 2
    assert eta_second_moment(2.0, 0.1, 0.5, 4.0) == pytest.approx(want, abs=1e-12)
    # loss branch keeps the full box magnitude regardless of rate
    assert eta(2.0, 0.1, 64.0, 0) == pytest.approx(2.1)
    with pytest.raises(ValueError):
        eta_second_moment(2.0, 0.1, 0.0, 0.5)


def test_rate_bounds_match_eta_threshold_search():
    # the closed forms must reproduce the E[eta^2] = 1 crossings
    rng = np.random.default_rng(22)
    checked_low = checked_high = 0
    while checked_low < 20 or checked_high < 20:
        eps = rng.uniform(0.0, 0.9)
        lam = rng.uniform(1.0 + eps + 0.01, 4.0)
        p = rng.uniform(0.0, 0.95 / (lam + eps) ** 2)
        nb = necessary_bounds(lam, eps, p)
        if not nb.feasible:
            continue
        f = lambda n: eta_second_moment(lam, eps, p, n) - 1.0
        if nb.r_nec0 < 1.0 and f(1.0) > 0 and f(2.0 - 1e-12) < 0 and checked_low < 20:
            n_star = bisect_threshold(f, 1.0, 2.0)
            assert n_star == pytest.approx(2.0**nb.r_nec0, abs=1e-9)
            checked_low += 1
        if nb.r_nec1 >= 1.0 and f(2.0) > 0 and f(2.0**40) < 0 and checked_high < 20:
            n_star = bisect_threshold(f, 2.0, 2.0**40, tol=1e-11)
            assert n_star == pytest.approx(2.0**nb.r_nec1, abs=1e-7 * 2.0**nb.r_nec1)
            checked_high += 1


def test_monotonicity_grid():
    lams = np.linspace(1.6, 4.0, 20)
    eps_vals = np.linspace(0.0, 0.5, 20)
    ps = np.linspace(0.0, 0.04, 20)
    for eps in eps_vals:
        for p in ps:
            rs = []
            for lam in lams:
                if lam - eps <= 1.0:
                    continue
                nb = necessary_bounds(lam, eps, p)
                if nb.feasible:
                    rs.append((nb.r_nec, nb.p_nec))
            for (r1, q1), (r2, q2) in zip(rs, rs[1:]):
                assert r2 >= r1 - 1e-12
                assert q2 <= q1 + 1e-12
    # in p and eps at fixed lambda
    lam = 2.5
    for eps in eps_vals:
        rs = [necessary_bounds(lam, eps, p).r_nec for p in ps]
        for r1, r2 in zip(rs, rs[1:]):
            assert r2 >= r1 - 1e-12
    for p in ps:
        rs = [necessary_bounds(lam, eps, p) for eps in eps_vals]
        for a, b in zip(rs, rs[1:]):
            assert b.r_nec >= a.r_nec - 1e-12
            assert b.p_nec <= a.p_nec + 1e-12


def test_branch_crossing_structure():
    # the two rate branches cross exactly at one bit
    rng = np.random.default_rng(23)
    for _ in range(500):
        eps = rng.uniform(0.0, 0.8)
        lam = rng.uniform(1.0 + eps + 0.01, 5.0)
        p = rng.uniform(0.0, 1.0)
        nb_p = necessary_bounds(lam, eps, 0.0).p_nec
        p = p * nb_p * 0.999
        nb = necessary_bounds(lam, eps, p)
        if not (math.isfinite(nb.r_nec0) and math.isfinite(nb.r_nec1)):
            continue
        if abs(nb.r_nec0 - 1.0) < 1e-9:
            assert abs(nb.r_nec1 - nb.r_nec0) < 1e-6
        else:
            assert math.copysign(1, nb.r_nec1 - nb.r_nec0) == math.copysign(
                1, nb.r_nec0 - 1.0
            )


def test_unit_rate_loss_threshold_below_both_loss_bounds():
    # the loss level where the low-rate branch reaches one bit stays below
    # both branch loss limits
    for lam in np.linspace(1.3, 4.0, 15):
        for eps in np.linspace(0.0, 0.25, 10):
            if lam - eps <= 1.0:
                continue
            nb0 = necessary_bounds(lam, eps, 0.0)
            if nb0.r_nec0 >= 1.0:
                continue

            def r0_minus_one(p):
                return 1.0 - necessary_bounds(lam, eps, p).r_nec0

            p_nec0, p_nec1 = branch_loss_limits(lam, eps)
            p_star = bisect_threshold(r0_minus_one, 0.0, p_nec0 * 0.999999)
            assert p_star < p_nec0
            assert p_star < p_nec1 + 1e-12


def test_max_cell_expansion_examples():
    assert max_cell_expansion(2.0, 0.1, 2, 1, 1.0) == pytest.approx(1.05, abs=1e-15)
    for n in (1, 2, 5, 32):
        assert max_cell_expansion(2.0, 0.1, n, 0, 1.0) == pytest.approx(2.1, abs=1e-15)
    for n in (2, 3, 8):
        sigma = 1.7
        assert max_cell_expansion(2.0, 0.0, n, 1, sigma) == pytest.approx(
            2.0 * sigma / n, rel=1e-15
        )


def test_max_cell_expansion_equals_eta_exactly():
    # both sides evaluated in exact rational arithmetic must agree exactly
    rng = np.random.default_rng(24)
    for _ in range(30):
        eps = rng.uniform(0.0, 0.8)
        lam = rng.uniform(1.0 + eps + 0.01, 4.0)
        sigma = rng.uniform(0.1, 3.0)
        for n in (1, 2, 3, 5, 17, 64):
            for gamma in (0, 1):
                got = max_cell_expansion(lam, eps, n, gamma, sigma)
                m = Fraction(n) ** gamma
                eta_exact = (Fraction(lam) + max(m - 1, Fraction(1)) * Fraction(eps)) / m
                want = float(eta_exact * Fraction(sigma))
                assert got == want
