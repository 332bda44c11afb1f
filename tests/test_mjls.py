import math

import numpy as np
import pytest

import oracles
from ratelim.limits import eta_second_moment, necessary_bounds
from ratelim.mjls import (
    build_F,
    build_transition,
    min_sufficient_N,
    min_sufficient_level_real,
    spectral_radius,
    sufficient_mss,
    theta,
    window_bits,
)
from ratelim.plant import UncertainPlant


def test_theta_examples():
    assert theta(2.0, 0.1, 4, 1) == pytest.approx(0.575, abs=1e-15)
    for n in (2, 7, 64):
        assert theta(2.0, 0.1, n, 0) == pytest.approx(2.1, abs=1e-15)
    assert theta(0.0, 0.5, 4, 1) == 0.5  # zero-straddling box keeps its radius
    with pytest.raises(ValueError):
        theta(2.0, 0.1, 1.5, 1)


def test_window_bits_convention():
    # index 2 (0-based 1) is the window with only the oldest flag set
    assert window_bits(0, 3) == (0, 0, 0)
    assert window_bits(1, 3) == (0, 0, 1)
    assert window_bits(2**3 - 1, 3) == (1, 1, 1)
    assert window_bits(0b10, 2) == (1, 0)  # newest flag first


def test_transition_scalar():
    p = 0.3
    t = build_transition(1, p)
    assert t.tolist() == [[p, 1 - p], [p, 1 - p]]


def test_transition_second_order_band_pattern():
    p = 0.3
    t = build_transition(2, p)
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 0] = p
    want[0, 2] = want[1, 2] = 1 - p
    want[2, 1] = want[3, 1] = p
    want[2, 3] = want[3, 3] = 1 - p
    assert np.array_equal(t, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transition_stochastic_and_stationary(n):
    p = 0.35
    t = build_transition(n, p)
    assert np.allclose(t.sum(axis=1), 1.0)
    # stationary law is the product Bernoulli over the window
    pi = np.array(
        [
            math.prod(p if b == 0 else 1 - p for b in window_bits(w, n))
            for w in range(2**n)
        ]
    )
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi @ t, pi, atol=1e-14)


def test_build_F_scalar_structure():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    p, n_levels = 0.25, 4
    model = build_F(plant, n_levels, p)
    t0 = theta(2.0, 0.1, n_levels, 0)
    t1 = theta(2.0, 0.1, n_levels, 1)
    want = np.array(
        [[p * t0**2, p * t1**2], [(1 - p) * t0**2, (1 - p) * t1**2]]
    )
    assert np.allclose(model.lifted, want, atol=1e-15)


def test_build_F_assigns_flags_per_coefficient_age():
    # order 2, window (newest=1, oldest=0): theta_1 reads the new flag,
    # theta_2 the old one
    plant = UncertainPlant(n=2, a_star=(0.5, 2.0), eps=(0.2, 0.1), y0_bound=1.0)
    model = build_F(plant, 4, 0.3)
    h = model.companions[0b10]
    assert h[0, 1] == 1.0
    assert h[1, 1] == pytest.approx(theta(0.5, 0.2, 4, 1))  # theta_1 at gamma=1
    assert h[1, 0] == pytest.approx(theta(2.0, 0.1, 4, 0))  # theta_2 at gamma=0
    assert model.lifted.shape == (16, 16)
    assert (model.lifted >= 0).all()


def test_build_F_matches_product_form():
    # 100 seeded plants of orders 1..5 with 5 of order 6 among them; about
    # a quarter have a lossless channel (one zero block per source window)
    # and about half a real level
    rng = np.random.default_rng(2026)
    for k in range(100):
        n = 6 if k % 20 == 19 else 1 + k % 5
        eps = rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.8)
        a_star = rng.uniform(-3.0, 3.0, size=n)
        a_star[-1] = rng.choice((-1.0, 1.0)) * (1.0 + eps[-1] + rng.uniform(0.01, 2.0))
        plant = UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps))
        p = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 0.9))
        real = rng.uniform() < 0.5
        n_levels = float(rng.uniform(2.0, 64.0)) if real else int(rng.integers(2, 65))
        want = oracles.lifted_matrix(plant, n_levels, p)
        assert np.array_equal(build_F(plant, n_levels, p).lifted, want)


def test_build_F_order_cap():
    plant = UncertainPlant(
        n=7, a_star=(0, 0, 0, 0, 0, 0, 2.0), eps=(0,) * 7, y0_bound=1.0
    )
    with pytest.raises(ValueError):
        build_F(plant, 4, 0.1)


def test_spectral_radius_basics():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.array([[0.0, 1.0], [0.25, 0.0]])) == pytest.approx(
        0.5, abs=1e-9
    )
    assert spectral_radius(np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError):
        spectral_radius(np.array([[1.0, -0.1], [0.0, 1.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, bad], [0.0, 1.0]]))


def test_spectral_radius_against_eigensolver():
    rng = np.random.default_rng(31)
    for _ in range(50):
        size = int(rng.integers(2, 20))
        mat = rng.uniform(0.0, 1.0, size=(size, size))
        mat[rng.uniform(size=mat.shape) < 0.5] = 0.0
        mat += np.diag(rng.uniform(0.05, 0.5, size=size))  # aperiodic
        want = np.abs(np.linalg.eigvals(mat)).max()
        assert spectral_radius(mat) == pytest.approx(want, abs=1e-8)


def test_closed_form_examples():
    certain = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    rho, ok = sufficient_mss(certain, 4, 0.0)
    assert rho == pytest.approx(0.25, abs=1e-12) and ok
    rho, ok = sufficient_mss(certain, 4, 0.2)
    assert rho == pytest.approx(1.0, abs=1e-10) and not ok  # strict inequality
    uncertain = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    rho, ok = sufficient_mss(uncertain, 2, 0.0)
    assert rho == pytest.approx(1.1025, abs=1e-12) and not ok


def test_min_sufficient_N_examples():
    certain = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    assert min_sufficient_N(certain, 0.0).level == 3  # N=2 sits exactly at one
    uncertain = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    assert min_sufficient_N(uncertain, 0.0).level == 3
    # beyond the loss limit nothing works
    res = min_sufficient_N(certain, 0.3, n_max=64)
    assert res.level is None and res.rho >= 1.0


def test_scalar_equivalence_with_eta_moment():
    rng = np.random.default_rng(32)
    for _ in range(25):
        eps = rng.uniform(0.0, 0.9)
        lam = rng.uniform(1.0 + eps + 0.01, 4.0)
        plant = UncertainPlant(n=1, a_star=(lam,), eps=(eps,))
        for n_levels in (2, 3, 8, 64):
            for p in (0.0, 0.1, 0.45):
                rho = spectral_radius(build_F(plant, n_levels, p).lifted)
                assert rho == pytest.approx(
                    eta_second_moment(lam, eps, p, n_levels), abs=1e-10
                )


def test_scalar_test_matches_necessity_region():
    # at order one the spectral test and the necessary bounds agree
    rng = np.random.default_rng(33)
    for _ in range(30):
        eps = rng.uniform(0.0, 0.9)
        lam = rng.uniform(1.0 + eps + 0.01, 4.0)
        plant = UncertainPlant(n=1, a_star=(lam,), eps=(eps,))
        for n_levels in (2, 5, 16):
            for p in (0.0, 0.1, 0.3):
                rho = spectral_radius(build_F(plant, n_levels, p).lifted)
                if abs(rho - 1.0) <= 1e-6:
                    continue
                nb = necessary_bounds(lam, eps, p)
                conj = math.log2(n_levels) > nb.r_nec1 and p < nb.p_nec
                assert (rho < 1.0) == conj


def test_min_sufficient_level_real_brackets_integer_search():
    plant = UncertainPlant(n=2, a_star=(1.0, 2.0), eps=(0.05, 0.05), y0_bound=1.0)
    level = min_sufficient_level_real(plant, 0.05)
    assert 2.0 <= level < math.inf
    rho_below = spectral_radius(build_F(plant, level * 0.999, 0.05).lifted)
    rho_above = spectral_radius(build_F(plant, level * 1.001, 0.05).lifted)
    assert rho_below >= 1.0 - 1e-6
    assert rho_above < 1.0
    n_int = min_sufficient_N(plant, 0.05).level
    assert n_int == math.ceil(level - 1e-9)
