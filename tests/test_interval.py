import math

import numpy as np
import pytest

from oracles import beta, contains, interval, measure, minkowski_sum, product_measure_cases
from ratelim.interval import Interval, midpoint, scale_product


def brute_hull_measure(a_lo, a_hi, y_lo, y_hi):
    """Independent endpoint-product oracle (bilinear extremes)."""
    prods = [a_lo * y_lo, a_lo * y_hi, a_hi * y_lo, a_hi * y_hi]
    return max(prods) - min(prods)


def test_measure_examples():
    assert measure(Interval(0.0, 0.0)) == 0.0
    assert measure(Interval(-1.5, 1.5)) == 3.0
    assert measure(Interval(0.57, 1.05)) == pytest.approx(0.48, abs=1e-15)


def test_interval_validation():
    with pytest.raises(ValueError):
        interval(1.0, 0.0)
    with pytest.raises(ValueError):
        interval(0.0, math.inf)
    iv = interval(-1.0, 2.0)
    assert iv.lo == -1.0 and iv.hi == 2.0
    assert midpoint(iv) == 0.5
    assert contains(iv, 2.0) and not contains(iv, 2.1)
    assert contains(iv, 2.1, tol=0.2)


def test_minkowski_examples():
    assert minkowski_sum(Interval(0, 1), Interval(0, 0)) == Interval(0, 1)
    assert minkowski_sum(Interval(-1, 1), Interval(2, 3)) == Interval(1, 4)
    s = minkowski_sum(Interval(-1, 1), Interval(2, 3))
    assert measure(s) == 3.0


def test_minkowski_measure_additivity_exact_on_dyadics():
    # dyadic endpoints make every sum and difference exact in binary floats
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a_lo, a_hi = sorted(rng.integers(-4096, 4096, size=2) / 1024.0)
        b_lo, b_hi = sorted(rng.integers(-4096, 4096, size=2) / 1024.0)
        a, b = Interval(a_lo, a_hi), Interval(b_lo, b_hi)
        assert measure(minkowski_sum(a, b)) == measure(a) + measure(b)


def test_minkowski_measure_additivity_general():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        a_lo, a_hi = sorted(rng.uniform(-5, 5, size=2))
        b_lo, b_hi = sorted(rng.uniform(-5, 5, size=2))
        a, b = Interval(a_lo, a_hi), Interval(b_lo, b_hi)
        assert measure(minkowski_sum(a, b)) == pytest.approx(
            measure(a) + measure(b), abs=1e-12
        )


def test_scale_product_examples():
    assert scale_product(Interval(1.9, 2.1), Interval(0.3, 0.5)) == pytest.approx(
        (0.57, 1.05)
    )
    assert scale_product(Interval(-0.1, 0.1), Interval(0.3, 0.5)) == pytest.approx(
        (-0.05, 0.05)
    )
    assert scale_product(Interval(1, 1), Interval(-2.5, 3.5)) == Interval(-2.5, 3.5)


def test_scale_product_against_dense_sampling():
    # grids include the endpoints, where bilinear extremes live
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(1000):
        a_lo, a_hi = sorted(rng.uniform(-4, 4, size=2))
        y_lo, y_hi = sorted(rng.uniform(-4, 4, size=2))
        hull = scale_product(Interval(a_lo, a_hi), Interval(y_lo, y_hi))
        avals = a_lo + (a_hi - a_lo) * grid
        yvals = y_lo + (y_hi - y_lo) * grid
        prods = np.outer(avals, yvals)
        assert hull.lo == pytest.approx(prods.min(), abs=1e-9)
        assert hull.hi == pytest.approx(prods.max(), abs=1e-9)


def test_product_measure_cases_examples():
    assert product_measure_cases(2, 0.1, Interval(0.3, 0.5)) == pytest.approx(
        0.48, abs=1e-15
    )
    assert product_measure_cases(0, 0.1, Interval(0.3, 0.5)) == pytest.approx(
        0.1, abs=1e-15
    )
    assert product_measure_cases(2, 0.1, Interval(-0.2, 0.3)) == pytest.approx(
        1.05, abs=1e-15
    )


def test_product_measure_cases_rejects_negative_radius():
    with pytest.raises(ValueError):
        product_measure_cases(1.0, -0.1, Interval(0, 1))


def test_product_measure_matches_hull_everywhere():
    # includes the double-zero-straddling corner the coarse case split misses
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        a_star = rng.uniform(-3, 3)
        eps = rng.uniform(0, 2)
        y_lo, y_hi = sorted(rng.uniform(-2, 2, size=2))
        got = product_measure_cases(a_star, eps, Interval(y_lo, y_hi))
        want = brute_hull_measure(a_star - eps, a_star + eps, y_lo, y_hi)
        assert got == pytest.approx(want, abs=1e-12)


def test_beta_examples():
    assert beta(Interval(0.25, 0.5)) == 0.75
    assert beta(Interval(-0.5, 0.5)) == 1.0
    assert beta(Interval(-0.5, -0.25)) == 0.75


def test_beta_mirror_symmetry_and_nonnegativity():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        lo, hi = sorted(rng.uniform(-3, 3, size=2))
        b = beta(Interval(lo, hi))
        assert b >= 0.0
        assert b == beta(Interval(-hi, -lo))
    # branch boundaries: an endpoint exactly at zero agrees from both sides
    assert beta(Interval(0.0, 0.7)) == 0.7
    assert beta(Interval(-0.7, 0.0)) == 0.7
