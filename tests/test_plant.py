import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import check_unstable_assumption, companion_matrix, lambda_pi, step
from ratelim.channel import uniform01
from ratelim.interval import SLOTS
from ratelim.plant import ParamStrategy, UncertainPlant, iid_params, realize_params, step_unchecked


def make_plant(n=2, a=(1.0, 2.5), e=(0.05, 0.05)):
    return UncertainPlant(n=n, a_star=a, eps=e, y0_bound=1.0)


def test_construction_rejects_marginal_last_coefficient():
    with pytest.raises(ValueError):
        UncertainPlant(n=1, a_star=(1.5,), eps=(0.6,))
    with pytest.raises(ValueError):
        UncertainPlant(n=1, a_star=(1.0,), eps=(0.0,))
    with pytest.raises(ValueError):
        UncertainPlant(n=2, a_star=(1.0, 2.0), eps=(0.05, -0.01))
    with pytest.raises(ValueError):
        UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,), y0_bound=0.0)


@pytest.mark.parametrize(
    "a, e, y0",
    [
        ((1.0, float("nan")), (0.0, 0.0), 1.0),
        ((float("nan"), 3.0), (0.0, 0.0), 1.0),
        ((1.0, float("inf")), (0.0, 0.0), 1.0),
        ((1.0, 3.0), (0.0, float("nan")), 1.0),
        ((1.0, 3.0), (0.0, 0.0), float("nan")),
        ((1.0, 3.0), (0.0, 0.0), float("inf")),
    ],
)
def test_construction_rejects_non_finite_parameters(a, e, y0):
    with pytest.raises(ValueError, match="finite"):
        UncertainPlant(n=2, a_star=a, eps=e, y0_bound=y0)


def test_lambda_pi_examples():
    assert lambda_pi(make_plant()) == 2.5
    assert lambda_pi(UncertainPlant(n=1, a_star=(3.3,), eps=(0.025,))) == 3.3
    assert lambda_pi(UncertainPlant(n=2, a_star=(1.0, -2.5), eps=(0, 0))) == -2.5


def test_step_examples():
    p1 = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    assert step(p1, [1.0], -2.0, (2.0,)) == 0.0
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.0), eps=(0.0, 0.0))
    # history oldest-first: (y[k-1], y[k]) = (1, 1)
    assert step(p2, [1.0, 1.0], 0.0, (1.0, 2.0)) == 3.0
    assert step(p2, [0.0, 0.0], 0.0, (1.0, 2.0)) == 0.0


def test_step_rejects_out_of_box_params():
    p = make_plant()
    with pytest.raises(ValueError):
        step(p, [0.1, 0.2], 0.0, (1.2, 2.5))


def test_step_affine_in_u():
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.0), eps=(0.5, 0.5))
    # integer-valued data keeps every operation exact
    for h, u, params in [
        ([3.0, -2.0], 5.0, (1.0, 2.0)),
        ([7.0, 11.0], -13.0, (1.5, 2.5)),
        ([0.0, 1.0], 1.0, (0.5, 1.5)),
    ]:
        assert step(p2, h, u, params) - step(p2, h, 0.0, params) == u
    rng = np.random.default_rng(3)
    for _ in range(500):
        h = list(rng.uniform(-2, 2, size=2))
        u = rng.uniform(-2, 2)
        params = (rng.uniform(0.5, 1.5), rng.uniform(1.5, 2.5))
        diff = step(p2, h, u, params) - step(p2, h, 0.0, params)
        assert diff == pytest.approx(u, abs=1e-12)


def test_realize_nominal_and_vertex():
    p = make_plant()
    assert realize_params(p, ParamStrategy("nominal")) == (1.0, 2.5)
    got = realize_params(p, ParamStrategy("fixed_vertex", signs=(1, 1)))
    assert got == pytest.approx((1.05, 2.55))
    got = realize_params(p, ParamStrategy("fixed_vertex", signs=(-1, 1)))
    assert got == pytest.approx((0.95, 2.55))


def test_iid_uniform_reproducible_and_in_box():
    # draws are a pure function of (seed, step, coefficient): a second
    # call replays them, and each depends on all three
    p = make_plant()
    steps = range(50)
    seq1 = [iid_params(p, 123, k) for k in steps]
    seq2 = [iid_params(p, 123, k) for k in steps]
    assert seq1 == seq2  # bit-identical
    for draw in seq1:
        for v, a, e in zip(draw, p.a_star, p.eps):
            assert a - e <= v <= a + e
    other_seed = [iid_params(p, 124, k) for k in steps]
    assert all(a != b for d1, d2 in zip(seq1, other_seed) for a, b in zip(d1, d2))
    assert len({d for draw in seq1 for d in draw}) == 2 * len(seq1)  # per step and coefficient
    # coefficients read disjoint counters, so equal radii still draw apart
    twin = make_plant(a=(2.5, 2.5), e=(0.05, 0.05))
    assert all(len(set(iid_params(twin, 123, k))) == 2 for k in steps)


def test_iid_array_seed_gives_each_trial_the_scalar_bits():
    p = make_plant(n=3, a=(0.3, -1.0, 2.5), e=(0.1, 0.0, 0.05))
    seeds = [0, 1, 123, 2**63 + 5, 2**64 - 1]
    keys = np.array(seeds, dtype=np.uint64)
    for k in (0, 1, 7, 399):
        batched = iid_params(p, keys, k)
        for t, seed in enumerate(seeds):
            assert tuple(float(c[t]) for c in batched) == iid_params(p, seed, k)


def _slot_bits(params, trials):
    """Each slot's coefficient vector as float.hex strings; a float coefficient fills every slot."""
    cols = [np.broadcast_to(np.asarray(c, float), (trials,)) for c in params]
    return [tuple(float(c[t]).hex() for c in cols) for t in range(trials)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
def test_array_call_gives_each_slot_the_scalar_bits(kind, n):
    p = make_plant(n=n, a=(0.3, -1.0, 2.5)[3 - n:], e=(0.1, 0.0, 0.05)[3 - n:])
    inf, nan = float("inf"), float("nan")
    # per slot: finite, a tie at zero, NaN, +-inf and overflowing candidates
    rows = [([0.2, -0.4, 0.3], 0.1), ([0.0, 0.0, 0.0], 0.0), ([0.1, nan, 0.2], 0.0),
            ([inf, 0.5, -0.5], 0.0), ([0.1, 0.2, -inf], 1.0), ([1e308, -1e308, 1e308], 0.0),
            ([0.3, 0.1, 0.2], -inf), ([0.3, 0.1, 0.2], nan), ([0.0, 0.0, 0.0], inf)]
    seeds = [0, 1, 123, 2**63 + 5, 2**64 - 1, 7, 8, 9, 10]
    trials = len(rows)
    history = [np.array([h[3 - n + j] for h, _ in rows]) for j in range(n)]
    u = np.array([u for _, u in rows])
    signs = (1, -1, 1)[:n]
    keys, strategy = np.array(seeds, dtype=np.uint64), ParamStrategy(kind, signs=signs)
    with np.errstate(all="ignore"):
        for k in (0, 1, 399):
            if kind == "iid_uniform":  # the loops step on the row they drew, batched or not
                batched, want = iid_params(p, keys, k), [iid_params(p, seed, k) for seed in seeds]
            else:
                batched = realize_params(p, strategy, history, u, SLOTS)
                want = [realize_params(p, strategy, [float(h[t]) for h in history], float(u[t]))
                        for t in range(trials)]
            assert _slot_bits(batched, trials) == [tuple(map(float.hex, w)) for w in want]
    if kind != "greedy_adversarial":
        return
    for t, got in enumerate(want):  # greedy entries are exact box endpoints
        for v, a, e in zip(got, p.a_star, p.eps):
            assert v in (a - e, a + e)
    uncertain = [(v, a + e) for v, a, e in zip(want[1], p.a_star, p.eps) if e]
    assert all(v == hi for v, hi in uncertain)  # a tie picks a + e
    nan_slot = [(v, a - e) for v, a, e in zip(want[7], p.a_star, p.eps) if e]
    assert all(v == lo for v, lo in nan_slot)  # a NaN candidate picks a - e


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.data())
def test_greedy_matches_the_callback_oracle_bitwise(n, data):
    def floats(lo, hi):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False)

    a = data.draw(st.lists(floats(-3.0, 3.0), min_size=n, max_size=n))
    e = data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.3]) | floats(0.0, 0.5),
                           min_size=n, max_size=n))
    a[-1] = 1.6 + e[-1] if abs(a[-1]) - e[-1] <= 1.0 else a[-1]
    p = UncertainPlant(n=n, a_star=tuple(a), eps=tuple(e))
    values = st.floats(width=64) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    history = data.draw(st.lists(values, min_size=n, max_size=n))
    u = data.draw(values)
    strat = ParamStrategy("greedy_adversarial")
    with np.errstate(all="ignore"):
        want = oracles.realize_params(p, strat, 0, lambda q: step_unchecked(history, u, q))
        got = realize_params(p, strat, history, u)
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
        batched = realize_params(p, strat, [np.array([h, 0.0]) for h in history],
                                 np.array([u, 0.0]), ops=SLOTS)
        assert _slot_bits(batched, 2)[0] == tuple(map(float.hex, want))


def test_iid_stream_is_apart_from_an_equally_seeded_channel():
    # with n = 1 the parameter stream reads counter k, as the channel does;
    # the complemented key keeps the two uniforms apart under one seed
    p = UncertainPlant(n=1, a_star=(2.5,), eps=(1.0,))
    for seed in (0, 3, 2**40 + 1):
        for k in range(50):
            u = uniform01(~seed, k)
            assert u != uniform01(seed, k)
            assert iid_params(p, seed, k) == (2.5 + 1.0 * (2.0 * u - 1.0),)


def test_greedy_adversarial_dominates_nominal():
    p = make_plant(e=(0.3, 0.4))
    rng = np.random.default_rng(4)
    strat = ParamStrategy("greedy_adversarial")
    for _ in range(1000):
        h = list(rng.uniform(-3, 3, size=2))
        u = rng.uniform(-3, 3)

        def out(params):
            return params[0] * h[1] + params[1] * h[0] + u

        greedy = realize_params(p, strat, h, u)
        assert abs(out(greedy)) >= abs(out(p.a_star)) - 1e-12
        for v, a, e in zip(greedy, p.a_star, p.eps):
            assert v in (a - e, a + e) or e == 0.0


def test_greedy_requires_context():
    # greedy needs the step's n last outputs and input: a ValueError, never an IndexError
    greedy = ParamStrategy("greedy_adversarial")
    for history, u in [(None, None), ([0.1, 0.2], None), ([0.1], 0.0)]:
        with pytest.raises(ValueError):
            realize_params(make_plant(), greedy, history, u)


def test_companion_matrix_layout():
    m = companion_matrix((1.0, 2.5))
    assert m.tolist() == [[0.0, 1.0], [2.5, 1.0]]


def test_unstable_check_clean_plant():
    p = UncertainPlant(n=1, a_star=(3.3,), eps=(0.025,))
    assert check_unstable_assumption(p, grid=7) == []


def test_unstable_check_flags_interior_eigenvalue():
    # one eigenvalue of the companion lies inside the unit circle
    p = UncertainPlant(n=2, a_star=(0.5, 1.1), eps=(0.0, 0.0))
    eig = np.linalg.eigvals(companion_matrix(p.a_star))
    assert np.abs(eig).min() < 1.0  # oracle for the setup itself
    reports = check_unstable_assumption(p, grid=3)
    assert reports and all(r.min_eigenvalue_modulus <= 1.0 for r in reports)


def test_unstable_check_second_order_grid():
    p = make_plant()
    reports = check_unstable_assumption(p, grid=5)
    for r in reports:
        assert r.min_eigenvalue_modulus <= 1.0
