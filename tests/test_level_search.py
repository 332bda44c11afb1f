"""The shared monotone search against the scans and bisection it replaced."""

import math

import numpy as np
import pytest

import oracles
from ratelim._search import first_passing, split_integers
from ratelim.mjls import min_sufficient_N, min_sufficient_level_real
from ratelim.plant import UncertainPlant
from ratelim.timeshare import min_feasible_average_level


def test_first_passing_finds_every_threshold_within_every_cap():
    for cap in range(2, 41):
        for threshold in range(2, 46):
            probes = []

            def passes(level):
                probes.append(level)
                return level >= threshold

            found = first_passing(passes, 2, cap, split_integers)
            assert found == (threshold if threshold <= cap else None)
            assert all(2 <= level <= cap for level in probes)
            assert len(probes) <= 2 * math.ceil(math.log2(cap)) + 1
    with pytest.raises(ValueError):
        first_passing(lambda level: True, 2, 1, split_integers)


def _random_plants(rng, count):
    plants = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        eps = tuple(float(x) for x in rng.uniform(0.0, 0.1, n))
        a = [float(x) for x in rng.uniform(-1.5, 1.5, n)]
        a[-1] = float(rng.uniform(1.0 + eps[-1] + 0.01, 3.0)) * float(rng.choice([-1.0, 1.0]))
        plants.append((UncertainPlant(n=n, a_star=tuple(a), eps=eps), float(rng.uniform(0.0, 0.3))))
    return plants


def test_min_feasible_average_level_matches_upward_scan():
    rng = np.random.default_rng(51)
    outcomes = {"found": 0, "none": 0, "at_cap": 0}
    for _ in range(400):
        m = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.0, 0.08))
        a = float(rng.uniform(1.0 + eps + 0.01, 3.5)) * float(rng.choice([-1.0, 1.0]))
        p = float(rng.uniform(0.0, 0.2)) if rng.random() < 0.7 else 0.0
        cap = int(math.exp(rng.uniform(math.log(2.0), math.log(5000.0))))
        want = oracles.min_feasible_average_level(a, eps, p, m, cap=cap)
        assert min_feasible_average_level(a, eps, p, m, cap=cap) == want
        outcomes["none" if want is None else "found"] += 1
        outcomes["at_cap"] += want is not None and want[0] == cap
    # the draw reaches both outcomes and the clamped top of the bracket
    assert min(outcomes.values()) > 0


def test_min_sufficient_N_matches_upward_scan():
    rng = np.random.default_rng(52)
    for plant, p in _random_plants(rng, 100):
        n_max = int(rng.integers(2, 65))
        want = oracles.min_sufficient_N(plant, p, n_max=n_max)
        got = min_sufficient_N(plant, p, n_max=n_max)
        assert got.level == want.level
        if want.level is not None:
            assert got.rho == want.rho
        else:
            assert abs(got.rho - want.rho) <= 1e-12


def test_min_sufficient_level_real_matches_old_bisection():
    rng = np.random.default_rng(53)
    for plant, p in _random_plants(rng, 20):
        assert min_sufficient_level_real(plant, p) == oracles.min_sufficient_level_real(plant, p)
