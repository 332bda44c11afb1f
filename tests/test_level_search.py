"""The shared monotone search against the scans and bisection it replaced."""

import math

import numpy as np
import pytest

import oracles
from ratelim import mjls, timeshare
from ratelim._search import first_passing, split_integers
from ratelim.mjls import LEVEL_TOL, min_sufficient_N, min_sufficient_level_real
from ratelim.plant import UncertainPlant
from ratelim.timeshare import TimeShareConfig, min_feasible_average_level


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


def test_min_feasible_average_level_matches_upward_scan(monkeypatch):
    rng = np.random.default_rng(51)
    outcomes = {"found": 0, "none": 0, "at_cap": 0}
    for _ in range(400):
        m = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.0, 0.08))
        a = float(rng.uniform(1.0 + eps + 0.01, 3.5)) * float(rng.choice([-1.0, 1.0]))
        p = float(rng.uniform(0.0, 0.2)) if rng.random() < 0.7 else 0.0
        cap = int(math.exp(rng.uniform(math.log(2.0), math.log(5000.0))))
        want = oracles.min_feasible_average_level(a, eps, p, m, cap=cap)
        monkeypatch.setattr(timeshare, "TOTAL_CAP", cap)
        assert min_feasible_average_level(TimeShareConfig(a, eps, m), p) == want
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


def _lu_parity_plants():
    # seeded plants of orders 1..6: the last |a*| in [1.2 + eps, 3], the
    # others within +-1, eps <= 0.1, p <= 0.15 with a quarter lossless, and
    # one coefficient in four below the last zero with its box; then a pure
    # delay with losses, whose lifted matrix is reducible and periodic
    rng = np.random.default_rng(54)
    for n, count in ((1, 8), (2, 8), (3, 8), (4, 6), (5, 2), (6, 1)):
        for _ in range(count):
            eps = rng.uniform(0.0, 0.1, n)
            a = rng.uniform(-1.0, 1.0, n)
            zero = rng.uniform(size=n) < 0.25
            zero[-1] = False
            a[zero] = eps[zero] = 0.0
            a[-1] = rng.choice((-1.0, 1.0)) * rng.uniform(1.2 + eps[-1], 3.0)
            p = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 0.15))
            yield UncertainPlant(n=n, a_star=tuple(a), eps=tuple(eps)), p
    yield UncertainPlant(n=3, a_star=(0.0, 0.0, 2.0), eps=(0.0, 0.0, 0.1)), 0.1


def _probed(module, search, *args):
    """A search's answer and each level it probed, with that probe's answer."""
    probes = {}

    def logged(passes, *rest):
        def record(level):
            probes[level] = passes(level)
            return probes[level]

        return first_passing(record, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "first_passing", logged)
        return search(*args), probes


def test_searches_match_the_lu_decision():
    # both searches, with the runtime's probe decision and with the dense LU
    # solve that decided them before; every probe on which the two disagree is
    # checked against the eigenvalues of the lifted matrix
    differing = []
    for k, (plant, p) in enumerate(_lu_parity_plants()):
        assert min_sufficient_N(plant, p) == oracles.lu_min_sufficient_N(plant, p)
        got, probes = _probed(mjls, min_sufficient_level_real, plant, p)
        want, lu_probes = _probed(oracles, oracles.lu_min_sufficient_level_real, plant, p)
        assert got == want or abs(got - want) <= LEVEL_TOL * max(1.0, min(got, want))
        for level in sorted(probes.keys() & lu_probes.keys()):
            if probes[level] != lu_probes[level]:
                lifted = oracles.lifted_matrix(plant, level, p)
                radius = float(np.abs(np.linalg.eigvals(lifted)).max())
                assert probes[level] == (radius < 1.0)
                differing.append((k, level))
    assert differing == []
