import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import build_transition, eta_second_moment, window_bits
from ratelim import mjls
from ratelim.limits import necessary_bounds
from ratelim.mjls import (
    PowerIterationError,
    build_F,
    min_sufficient_N,
    min_sufficient_level_real,
    spectral_radius,
    sufficient_mss,
    theta,
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
    p = 0.3
    model = build_F(plant, 4, p)
    # last row (theta_2 at gamma=0, theta_1 at gamma=1)
    h = np.array([[0.0, 1.0], [theta(2.0, 0.1, 4, 0), theta(0.5, 0.2, 4, 1)]])
    w, nn = 0b10, 4
    for v, weight in ((0b01, p), (0b11, 1 - p)):  # loss, reception
        block = model.lifted[v * nn : (v + 1) * nn, w * nn : (w + 1) * nn]
        assert np.array_equal(block, weight * np.kron(h, h))
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


def test_spectral_radius_steps_the_period():
    # every cycle has length 3, so three eigenvalues share the spectral circle
    # and the iterate rotates unless the solver steps a multiple of 3
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 4.0], [2.0, 0.0, 0.0]])
    assert spectral_radius(cycle, 3) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(PowerIterationError, match=r"\[.*\]"):
        spectral_radius(cycle)


def test_spectral_radius_against_eigensolver():
    rng = np.random.default_rng(31)
    for _ in range(50):
        size = int(rng.integers(2, 20))
        mat = rng.uniform(0.0, 1.0, size=(size, size))
        mat[rng.uniform(size=mat.shape) < 0.5] = 0.0
        mat += np.diag(rng.uniform(0.05, 0.5, size=size))  # aperiodic
        want = np.abs(np.linalg.eigvals(mat)).max()
        assert spectral_radius(mat) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_periodic_plant_against_eigensolver(n, p):
    # a pure delay of n steps: every cycle of the lifted matrix has a length
    # divisible by n, so n eigenvalues share the spectral circle
    plant = UncertainPlant(n=n, a_star=(0.0,) * (n - 1) + (2.0,), eps=(0.0,) * (n - 1) + (0.1,))
    want = np.abs(np.linalg.eigvals(build_F(plant, 4, p).lifted)).max()
    assert sufficient_mss(plant, 4, p).rho == pytest.approx(want, abs=1e-10)


def _parity_plants():
    # 200 seeded plants of orders 1..5 with 2 of order 6 among them (a dense
    # eigensolve at order 6 takes seconds): about a quarter lossless, some
    # coefficients and radii zero, half the levels real; then the pure
    # delays, whose lifted matrices are periodic
    rng = np.random.default_rng(2027)
    for k in range(200):
        n = 6 if k % 100 == 99 else 1 + k % 5
        eps = rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.7)
        a_star = rng.uniform(-3.0, 3.0, size=n) * (rng.uniform(size=n) < 0.8)
        a_star[-1] = rng.choice((-1.0, 1.0)) * (1.0 + eps[-1] + rng.uniform(0.01, 2.0))
        p = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 0.6))
        real = rng.uniform() < 0.5
        n_levels = float(rng.uniform(2.0, 64.0)) if real else int(rng.integers(2, 65))
        yield UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps)), n_levels, p
    for n in (3, 4, 5, 6):
        delay = UncertainPlant(n=n, a_star=(0.0,) * (n - 1) + (2.0,), eps=(0.0,) * (n - 1) + (0.1,))
        yield delay, 4, 0.0
        yield delay, 4, 0.1


def test_certified_radius_matches_eigensolver_and_old_solver():
    for plant, n_levels, p in _parity_plants():
        want = np.abs(np.linalg.eigvals(build_F(plant, n_levels, p).lifted)).max()
        new = sufficient_mss(plant, n_levels, p)
        old = oracles.power_sufficient_mss(plant, n_levels, p)
        assert want * (1.0 - 1e-13) <= new.rho <= want * (1.0 + 1e-11)
        # the old solver stopped on an absolute agreement below one, so its
        # own error reaches 8e-12 / rho there
        assert abs(new.rho - old.rho) <= 1e-11 * max(old.rho, 1.0)
        if abs(old.rho - 1.0) > 1e-11:
            assert new.sufficient == old.sufficient


def _solve_or_unclosed(solve):
    try:
        return solve()
    except PowerIterationError:
        return None


def test_compact_solve_matches_dense_solve():
    # the solve on block rows against the dense solve of build_F's matrix at
    # the same period: 60 seeded plants of orders 1..5 with 3 of order 6 among them
    # (about a quarter lossless, some coefficients zero, half the levels
    # real), the pure delays (periodic), and a plant whose two largest
    # eigenvalues, 0.620597 and -0.620569, keep both solves from closing
    rng = np.random.default_rng(2030)
    cases = []
    for k in range(60):
        n = 6 if k % 20 == 19 else 1 + k % 5
        eps = rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.7)
        a_star = rng.uniform(-3.0, 3.0, size=n) * (rng.uniform(size=n) < 0.8)
        a_star[-1] = rng.choice((-1.0, 1.0)) * (1.0 + eps[-1] + rng.uniform(0.01, 2.0))
        p = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 0.6))
        n_levels = float(rng.uniform(2.0, 64.0)) if k % 2 else int(rng.integers(2, 65))
        cases.append((UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps)), n_levels, p))
    for n in (3, 4, 5, 6):
        delay = UncertainPlant(n=n, a_star=(0.0,) * (n - 1) + (2.0,), eps=(0.0,) * (n - 1) + (0.1,))
        cases += [(delay, 4, 0.0), (delay, 4, 0.1)]
    near = UncertainPlant(
        n=2, a_star=(-0.0, 1.3021310772101409), eps=(0.003507637168617328, 0.09975728448767646)
    )
    cases.append((near, 22, 0.18608033829235668))
    unclosed = []
    for k, (plant, n_levels, p) in enumerate(cases):
        period, lifted = mjls.lag_period(plant), build_F(plant, n_levels, p).lifted
        dense = _solve_or_unclosed(lambda: spectral_radius(lifted, period))
        got = _solve_or_unclosed(lambda: spectral_radius(mjls.block_rows(plant, n_levels, p), period))
        assert (got is None) == (dense is None)
        if got is None:
            unclosed.append(k)
            continue
        assert abs(got - dense) <= 1e-13 * dense
        assert sufficient_mss(plant, n_levels, p) == (got, got < 1.0)
    assert unclosed == [len(cases) - 1]


def test_block_rows_product_matches_dense_product():
    # the operator sufficient_mss iterates against build_F's dense matrix:
    # same dimension, and products within rounding on nonnegative vectors
    rng = np.random.default_rng(2031)
    for k in range(24):
        n = 1 + k % 6
        eps = rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.7)
        a_star = rng.uniform(-3.0, 3.0, size=n) * (rng.uniform(size=n) < 0.8)
        a_star[-1] = rng.choice((-1.0, 1.0)) * (1.0 + eps[-1] + rng.uniform(0.01, 2.0))
        plant = UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps))
        p, n_levels = (0.0 if k % 4 == 0 else float(rng.uniform(0.0, 0.6))), rng.uniform(2.0, 64.0)
        op, lifted = mjls.block_rows(plant, n_levels, p), build_F(plant, n_levels, p).lifted
        assert len(op) == lifted.shape[0] == (1 << n) * n * n
        for x in rng.uniform(0.0, 1.0, size=(3, len(op))):
            want = lifted @ x
            assert (np.abs(op @ x - want) <= 1e-14 * want).all()


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


def _certified(plant, n_levels, p, start=None):
    """The level searches' probe: True below one, False at or above it, None undecided."""
    op = mjls.block_rows(plant, n_levels, p)
    stop = mjls.power_bracket(op, mjls.lag_period(plant), start, True, mjls.PROBE_MATVECS).stop
    return {"below": True, "above": False}.get(stop)


def _eigen_radius(plant, n_levels, p):
    # the dense eigensolver may overflow or divide on the way; pytest turns that into an error
    with np.errstate(all="ignore"):
        return float(np.abs(np.linalg.eigvals(build_F(plant, n_levels, p).lifted)).max())


def _check_certificate(answer, radius):
    if answer is True:
        assert radius < 1.0
    if answer is False:
        assert radius >= 1.0 - 1e-12


def _decision_plants():
    # 200 seeded plants of orders 1..4 with 10 of order 5 among them: about a
    # quarter lossless, some coefficients and radii zero, real levels; every
    # other plant of order <= 4 whose radius crosses one between the levels 2
    # and 1e6 sits within a relative 1e-12..1e-3 of that level, on either side
    rng = np.random.default_rng(2029)
    for k in range(200):
        n = 5 if k % 20 == 19 else 1 + k % 4
        eps = rng.uniform(0.0, 0.5, size=n) * (rng.uniform(size=n) < 0.7)
        a_star = rng.uniform(-3.0, 3.0, size=n) * (rng.uniform(size=n) < 0.8)
        a_star[-1] = rng.choice((-1.0, 1.0)) * (1.0 + eps[-1] + rng.uniform(0.01, 2.0))
        plant = UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps))
        p = 0.0 if rng.uniform() < 0.25 else float(rng.uniform(0.0, 0.6))
        n_levels = float(np.exp(rng.uniform(math.log(2.0), math.log(64.0))))
        side = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0)
        if k % 2 and n < 5:
            edge = min_sufficient_level_real(plant, p)
            if 2.0 < edge < 1e6:
                n_levels = edge * (1.0 + side)
        yield plant, n_levels, p


def test_decision_is_certified_and_agrees_with_power_iteration():
    answers, near_edge, disagree, unclosed = {True: 0, False: 0, None: 0}, 0, [], []
    for k, (plant, n_levels, p) in enumerate(_decision_plants()):
        answer, radius = _certified(plant, n_levels, p), _eigen_radius(plant, n_levels, p)
        _check_certificate(answer, radius)
        answers[answer] += 1
        near_edge += abs(radius - 1.0) < 1e-9
        solve = mjls.power_bracket(mjls.block_rows(plant, n_levels, p), mjls.lag_period(plant))
        if solve.stop == "budget":
            unclosed.append(k)
        if answer is not None and answer != (solve.hi < 1.0):
            assert abs(solve.hi - 1.0) < 1e-10
            disagree.append(k)
    # the probe disagrees on no plant with power iteration, whose upper end
    # answers for plant 6 although it cannot close its bracket (two
    # eigenvalues of modulus 0.737); plant 98, a pure delay with losses
    # (radius 1.33), is undecided: its rows that reach only a class of smaller
    # radius hold the lower end at 0.94, so it stalls, and a search counts it
    # as a failure
    assert answers == {True: 54, False: 145, None: 1}
    assert disagree == []
    assert unclosed == [6]
    assert near_edge >= 5



@pytest.mark.parametrize("n_levels, want", [(3.96, False), (4.1, True)])
def test_decision_checks_the_solution_it_is_handed(n_levels, want):
    # at order one with a certain coefficient the lifted matrix is rank one,
    # [p, 1 - p]^T [4, 4 / N^2], with the positive Perron vector [p, 1 - p]
    # of eigenvalue 0.8 + 3.2 / N^2 at p = 0.2: 1.004 at N = 3.96 and 0.990 at
    # N = 4.1.  Handed that vector as its start, the probe must test F^2 x
    # against x and not trust a positive x.
    plant, p = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,)), 0.2
    assert _certified(plant, n_levels, p, np.array([p, 1.0 - p])) is want


@st.composite
def _decision_cases(draw):
    n = draw(st.integers(1, 3))
    eps = [draw(st.sampled_from((0.0, draw(st.floats(0.0, 0.5))))) for _ in range(n)]
    a_star = [draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    a_star[-1] = draw(st.sampled_from((-1.0, 1.0))) * (1.0 + eps[-1] + draw(st.floats(0.01, 2.0)))
    plant = UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps))
    p = draw(st.sampled_from((0.0, draw(st.floats(0.0, 0.6)))))
    n_levels = draw(st.floats(2.0, 64.0))
    if draw(st.booleans()):  # near the crossing, on either side
        edge = min_sufficient_level_real(plant, p)
        if 2.0 < edge < 1e6:
            side = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-13.0, -3.0))
            n_levels = edge * (1.0 + side)
    return plant, n_levels, p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_decision_cases())
def test_certified_answers_bound_the_eigenvalues(case):
    plant, n_levels, p = case
    _check_certificate(_certified(plant, n_levels, p), _eigen_radius(plant, n_levels, p))


def test_searches_need_no_dense_matrix(monkeypatch):
    # both searches decide every probe on the block rows, at every order
    def refuse(*args, **kwargs):
        raise AssertionError("a search built or solved the dense lifted matrix")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(mjls, "build_F", refuse)
    for n in range(1, 7):
        plant = UncertainPlant(n=n, a_star=(0.1, -0.2, 0.1, 0.3, -0.1)[: n - 1] + (1.8,), eps=(0.02,) * n)
        found = min_sufficient_N(plant, 0.05)
        assert found.level is not None and found.rho < 1.0
        assert math.ceil(min_sufficient_level_real(plant, 0.05) - 1e-9) == found.level


def test_probe_within_double_rounding_decides_in_long_double():
    # a rank-one lifted matrix whose radius, its trace, is 1 - 2.26e-16 in
    # exact arithmetic: no bracket in doubles excludes one, so the probe
    # stalls and runs on in long double, which certifies it where long double
    # is wider than double
    plant = UncertainPlant(n=1, a_star=(-2.746178199265322,), eps=(0.06080365444104069,))
    op = mjls.block_rows(plant, 42.17416462302208, 0.12519696678575276)
    wider = np.finfo(np.longdouble).eps < np.finfo(float).eps
    bracket = mjls.power_bracket(op, 1, None, True, mjls.PROBE_MATVECS)
    assert bracket.stop == ("below" if wider else "stalled")
    assert bracket.x.dtype == np.float64
