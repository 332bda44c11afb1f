import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import CodecState, measure, product_measure_cases, trial_configs
from ratelim import codec_loop
from ratelim.channel import ChannelConfig, draw, received, uniform01
from ratelim.codec_loop import (
    COMPLETED,
    CONVERGED,
    CONVERGED_SIGMA,
    DIVERGED,
    DIVERGED_SIGMA,
    SIGMA_MIN,
    TRIAL_BLOCK_STEPS,
    Lockstep,
    QuantizerSpec,
    SaturationError,
    Trial,
    advance_scaling,
    control,
    decode_cell,
    predict,
    quantize,
    run_closed_loop,
    run_closed_loop_batch,
)
from ratelim.interval import FLOATS, SLOTS, Interval
from ratelim.montecarlo import (BATCH_MIN_TRIALS, MAX_WORK, Experiment, _trial_setup,
                                run_experiment)
from ratelim.plant import ParamStrategy, UncertainPlant, iid_params, step_unchecked
from ratelim.timeshare import TimeShareConfig, run_timeshare_loop, run_timeshare_loop_batch


def test_quantizer_spec():
    with pytest.raises(ValueError):
        QuantizerSpec(0)
    # a level count is whole: a 2.5-level quantizer would run a loop to the end
    for levels in (2.5, 4 + 2**-40):
        with pytest.raises(ValueError, match="quantizer needs an integer level count"):
            QuantizerSpec(levels)
    for levels in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"quantizer needs 1 to 2\^53 levels"):
            QuantizerSpec(levels)
    assert QuantizerSpec(4.0).levels == 4


def test_quantize_examples():
    assert quantize(4, 0.0) == 2
    assert quantize(4, 0.5) == 3
    assert quantize(2, -0.3) == 0
    assert quantize(1, 0.2) == 0
    assert quantize(4, -0.5) == 0


def test_quantize_cell_boundaries():
    for n in (2, 3, 4, 7, 16):
        for i in range(n):
            lo = -0.5 + i / n
            assert quantize(n, lo) == i
            inside = lo + 1.0 / (2 * n)
            assert quantize(n, inside) == i
    assert quantize(3, 0.5) == 2


def test_quantize_saturation():
    with pytest.raises(SaturationError):
        quantize(4, 0.5 + 1e-6)
    with pytest.raises(SaturationError):
        quantize(4, -0.6)
    # tiny overshoot clamps instead of raising
    assert quantize(4, 0.5 + 1e-13) == 3
    assert quantize(4, -0.5 - 1e-13) == 0



def test_quantizer_spec_holds_up_to_2_pow_53_levels():
    # the batched loop keeps symbols in doubles, which tell every integer apart up to 2^53
    assert QuantizerSpec(2**53).levels == 2**53
    with pytest.raises(ValueError):
        QuantizerSpec(2**53 + 1)


def test_quantize_treats_nan_as_a_range_breach():
    with pytest.raises(SaturationError):
        quantize(4, float("nan"))

def test_decode_cell_examples():
    assert decode_cell(2, 1.0, 0.0, 1, True) == Interval(0.0, 0.5)
    assert decode_cell(8, 1.0, 0.0, 3, False) == Interval(-0.5, 0.5)
    assert decode_cell(4, 2.0, 3.0, 0, True) == Interval(2.0, 2.5)
    # the loops never pass a symbol outside the alphabet or a sigma <= 0; the
    # one-trial oracle copy refuses both
    with pytest.raises(ValueError):
        oracles.decode_cell(4, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        oracles.decode_cell(4, 0.0, 0.0, 1)


def test_decode_cells_partition_the_range():
    sigma, center, n = 1.7, -0.4, 5
    cells = [decode_cell(n, sigma, center, i, True) for i in range(n)]
    assert cells[0].lo == pytest.approx(center - sigma / 2)
    assert cells[-1].hi == pytest.approx(center + sigma / 2)
    for a, b in zip(cells, cells[1:]):
        assert a.hi == pytest.approx(b.lo)
        assert measure(a) == pytest.approx(sigma / n)


def _boxes(plant):
    return [plant.box(i) for i in range(plant.n)]


def test_predict_examples():
    p1 = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    assert predict(_boxes(p1), [Interval(0.3, 0.5)]) == pytest.approx((0.57, 1.05))
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.5), eps=(0.05, 0.05))
    assert predict(_boxes(p2), [Interval(0, 0), Interval(0, 0)]) == Interval(0, 0)
    # oldest-first cells: Y[k-1] = [0.2, 0.3], Y[k] = [0, 0.1]
    got = predict(_boxes(p2), [Interval(0.2, 0.3), Interval(0.0, 0.1)])
    a1 = Interval(0.95, 1.05)
    a2 = Interval(2.45, 2.55)
    want_lo = a1.lo * 0.0 + a2.lo * 0.2
    want_hi = a1.hi * 0.1 + a2.hi * 0.3
    assert got == pytest.approx((want_lo, want_hi))


def test_control_examples():
    p1 = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    assert control(p1.a_star, [Interval(0, 0)]) == 0.0
    assert control(p1.a_star, [Interval(0.3, 0.5)]) == pytest.approx(-0.8)
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.5), eps=(0.0, 0.0))
    # midpoints: y_hat[k] = 0.1, y_hat[k-1] = -0.2
    cells = [Interval(-0.3, -0.1), Interval(0.05, 0.15)]
    assert control(p2.a_star, cells) == pytest.approx(0.4)


def test_advance_scaling_examples():
    sigma, center = advance_scaling(Interval(0.57, 1.05), -0.8)
    assert sigma == pytest.approx(0.48)
    assert center == pytest.approx(0.01)
    sigma, center = advance_scaling(Interval(0.0, 0.0), 0.7)
    assert sigma == 1e-300
    assert center == 0.7


# an endpoint: any double, with signed zeros, infinities, NaN, the least subnormal and
# the largest double (whose sums overflow) drawn often
ENDS = st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                                  1.7976931348623157e308, -1.7976931348623157e308)), st.floats())


@st.composite
def _step_inputs(draw):
    """Float boxes and oldest-first cells, a prediction and a control at orders 1-6,
    with FLOATS (slots 0) or with SLOTS on 1-4 trial slots."""
    n, slots = draw(st.integers(1, 6)), draw(st.integers(0, 4))

    def end():
        return np.array([draw(ENDS) for _ in range(slots)]) if slots else draw(ENDS)

    boxes = [Interval(draw(ENDS), draw(ENDS)) for _ in range(n)]
    cells = [Interval(end(), end()) for _ in range(n)]
    return boxes, cells, Interval(end(), end()), end(), SLOTS if slots else FLOATS


def _bits(values):
    """Each value's type and bytes, with every NaN made one NaN: which NaN operand a float
    sum keeps (its sign and payload) can change as CPython specializes the bytecode."""
    return [(type(v), np.where(np.isnan(v), np.nan, v).tobytes()) for v in values]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_step_inputs())
def test_predict_and_advance_keep_the_bits_of_the_hull_form(case):
    # the loop's predict and advance_scaling give the bits (and types) of the forms that
    # built each coefficient's hull as an Interval and read measure and midpoint
    boxes, cells, prediction, u, ops = case
    with np.errstate(all="ignore"):
        got = predict(boxes, cells, ops)
        assert _bits(got) == _bits(oracles.predict_by_hulls(boxes, cells, ops))
        for pred in (got, prediction):
            assert _bits(advance_scaling(pred, u, ops)) == _bits(
                oracles.advance_scaling_by_measure(Interval(*pred), u, ops))


def _slot_hex(x, slots):
    """Each slot of x as float.hex; a float fills every slot."""
    return [float(v).hex() for v in np.broadcast_to(np.asarray(x, float), (slots,))]


@pytest.mark.parametrize("levels", [1, 2, 5, 2**53])
def test_slot_call_gives_each_slot_the_scalar_bits(levels):
    # per slot: the range ends, inputs within the clamping slack, signed zeros,
    # the last cell's inner edge and cells inside; every loop passes FLOATS or SLOTS
    v = np.array([-0.5, 0.5, -0.5 - 1e-13, 0.5 + 1e-13, 0.0, -0.0, 0.3, -0.2999, 0.5 - 2**-53, 0.1])
    slots = len(v)
    symbol = quantize(levels, v, SLOTS)
    want = [quantize(levels, x) for x in v.tolist()]
    assert want[1] == want[3] == levels - 1 and want[0] == want[2] == 0
    assert _slot_hex(symbol, slots) == [float(i).hex() for i in want]

    sigma = np.array([1.0, 0.7, 1e-150, 2.0, 3e5, 1.0, 0.25, 1e150, 1.5, 1.0])
    center = np.array([0.0, -0.0, 1e-160, -3.0, 7e5, -0.0, 0.1, -1e149, 0.3, 2.0])
    got = np.array([True, False, True, True, False, True, True, False, True, True])
    cell = decode_cell(levels, sigma, center, symbol, got, SLOTS)
    want = [decode_cell(levels, s, c, i, g)
            for s, c, i, g in zip(sigma.tolist(), center.tolist(), want, got.tolist())]
    assert _slot_hex(cell.lo, slots) == [w.lo.hex() for w in want]
    assert _slot_hex(cell.hi, slots) == [w.hi.hex() for w in want]
    every = decode_cell(levels, sigma, center, symbol, True, SLOTS)  # a lossless step
    assert _slot_hex(every.hi, slots) == [
        decode_cell(levels, s, c, i, 1).hi.hex()
        for s, c, i in zip(sigma.tolist(), center.tolist(), symbol.tolist())]

    # box 1 times the 1e10 cells overflows: to +inf at both ends (slot 0, a NaN
    # sigma) or at one end per sign (slot 1, an infinite sigma)
    boxes = [Interval(-2.0, 3.0), Interval(1e300, 2e300), Interval(-1.0, 0.0)]
    big = Interval(np.array([1e10, -1e10] + [0.1] * 8), np.array([2e10, 1e10] + [0.2] * 8))
    zeros = Interval(np.array([-0.0, 0.0] * 5), np.array([0.0, -0.0, 0.0, 1e-300, 5.0] * 2))
    cells = [zeros, big, cell]  # oldest-first: box 0 meets the decoded cell
    u = np.array([0.5, -0.0, 0.0, 1e300, -2.0, 0.0, 3.0, -0.0, 1.0, 0.0])
    with np.errstate(all="ignore"):
        prediction = predict(boxes, cells, SLOTS)
        step = advance_scaling(prediction, u, SLOTS)
    for t in range(slots):
        cells_t = [Interval(float(c.lo[t]), float(c.hi[t])) for c in cells]
        pred_t = predict(boxes, cells_t)
        assert [_slot_hex(e, slots)[t] for e in prediction] == [e.hex() for e in pred_t]
        assert [_slot_hex(e, slots)[t] for e in step] == [
            e.hex() for e in advance_scaling(pred_t, float(u[t]))]
    assert step[0][0] != step[0][0] and step[0][1] == float("inf")

    # a breach names the first slot breaching, with the float call's message
    for bad in (0.5 + 1e-6, -0.6, float("nan"), float("-inf")):
        with pytest.raises(SaturationError) as scalar:
            quantize(levels, bad)
        with pytest.raises(SaturationError) as batched:
            quantize(levels, np.array([0.1, -0.5, bad, 0.7, float("nan"), 0.2]), SLOTS)
        assert str(batched.value) == str(scalar.value)


def test_marginal_scalar_loop_holds_sigma():
    # n=1, lossless, N=2, a*=2, eps=0: growth factor exactly one
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    trace = run_closed_loop(
        plant, QuantizerSpec(2), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 50, 0.25
    )
    ratios = np.diff(np.log(trace.sigma))
    assert np.allclose(ratios, 0.0, atol=1e-12)


def test_geometric_decay_certain_plant():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    trace = run_closed_loop(
        plant, QuantizerSpec(4), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 60, 0.3
    )
    for k in range(len(trace) - 1):
        assert trace.sigma[k + 1] / trace.sigma[k] == pytest.approx(0.5, abs=1e-12)


def test_zero_rate_diverges():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    trace = run_closed_loop(
        plant, QuantizerSpec(1), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 2000, 0.3
    )
    assert trace.status == DIVERGED
    for k in range(1, min(20, len(trace))):
        assert trace.sigma[k] / trace.sigma[k - 1] == pytest.approx(2.1, abs=1e-12)


def test_deep_convergence_hits_floor_status():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    trace = run_closed_loop(
        plant, QuantizerSpec(64), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 400, 0.3
    )
    assert trace.status == CONVERGED
    assert len(trace) < 400


def test_run_rejects_oversized_initial_output():
    # the quantizer covers [-Y0/2, Y0/2] at the start, not [-Y0, Y0]
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,), y0_bound=1.0)
    cfg = TimeShareConfig(a_star=2.0, eps=0.0, m=2, y0_bound=1.0)
    for y0 in (1.5, 0.8, -0.8, 0.5000001, -0.5000001):
        with pytest.raises(ValueError):
            run_closed_loop(
                plant, QuantizerSpec(4), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 10, y0
            )
        with pytest.raises(ValueError):
            run_timeshare_loop(cfg, QuantizerSpec(2), ChannelConfig(0.0, 5),
                               ParamStrategy("nominal"), 10, y0)


def _random_plant(rng):
    n = int(rng.integers(1, 4))
    eps = rng.uniform(0.0, 0.3, size=n)
    a = rng.uniform(-1.5, 1.5, size=n)
    a[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + eps[-1] + 0.05, 3.0)
    return UncertainPlant(n=n, a_star=tuple(a), eps=tuple(eps), y0_bound=1.0)


def _replay_and_check(plant, levels, trace, channel, strategy):
    """Re-derive the decoder state from the channel draws and the recorded outputs.

    Checks containment and the exact measure recursion, that the replayed
    sigma matches the loop's bit for bit, and that the plant re-stepped from
    the replay's own input reaches the loop's next output bit for bit.
    """
    state = CodecState(plant=plant, levels=levels, sigma=plant.y0_bound)
    history = [0.0] * (plant.n - 1) + [trace.y[0]]
    for k in range(len(trace)):
        assert state.sigma == trace.sigma[k]
        assert history[-1] == trace.y[k]
        cell = state.observe(draw(channel, k), state.encode(trace.y[k]))
        assert cell.lo - 1e-12 <= trace.y[k] <= cell.hi + 1e-12
        u = control(plant.a_star, state.cells)
        expected_sigma = sum(
            product_measure_cases(plant.a_star[i], plant.eps[i], state.cells[plant.n - 1 - i])
            for i in range(plant.n)
        )
        state.advance(u)
        if state.sigma > 1e-290:
            assert state.sigma == pytest.approx(expected_sigma, abs=1e-12 * max(1, expected_sigma))
        params = oracles.realize_params(plant, strategy, k, lambda p: step_unchecked(history, u, p))
        history = history[1:] + [step_unchecked(history, u, params)]


@pytest.mark.parametrize(
    "kind", ["nominal", "iid_uniform", "greedy_adversarial", "fixed_vertex"]
)
def test_loop_invariants_random_trials(kind):
    rng = np.random.default_rng(hash(kind) % (2**32))
    for trial in range(60):
        plant = _random_plant(rng)
        levels = int(rng.integers(1, 9))
        p = float(rng.uniform(0.0, 0.4))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=plant.n))
        strategy = ParamStrategy(kind, seed=int(rng.integers(0, 2**31)), signs=signs)
        channel = ChannelConfig(p=p, seed=int(rng.integers(0, 2**31)))
        y0 = float(rng.uniform(-0.5, 0.5))
        trace = run_closed_loop(plant, QuantizerSpec(levels), channel, strategy, 60, y0)
        assert trace.status in (COMPLETED, CONVERGED, DIVERGED)
        _replay_and_check(plant, levels, trace, channel, strategy)


def test_encoder_decoder_synchrony_bit_identical():
    plant = UncertainPlant(n=2, a_star=(0.4, 2.2), eps=(0.1, 0.08), y0_bound=1.0)
    channel = ChannelConfig(p=0.2, seed=17)
    trace = run_closed_loop(
        plant, QuantizerSpec(4), channel, ParamStrategy("iid_uniform", seed=3), 80, 0.2
    )
    enc = CodecState(plant=plant, levels=4, sigma=plant.y0_bound)
    dec = CodecState(plant=plant, levels=4, sigma=plant.y0_bound)
    for k in range(len(trace)):
        assert dec.sigma == trace.sigma[k]
        gamma, symbol = draw(channel, k), enc.encode(trace.y[k])
        # the decoder never sees the symbol on loss; the encoder may not use it
        enc.observe(gamma, symbol)
        dec.observe(gamma, symbol if gamma else None)
        enc.advance(control(plant.a_star, enc.cells))
        dec.advance(control(plant.a_star, dec.cells))
        assert enc.sigma == dec.sigma and enc.center == dec.center
        assert enc.cells == dec.cells


def _trace_fields(trace):
    return trace.y, trace.sigma, trace.status, len(trace)


def test_loop_matches_codec_state_oracle():
    # every order 1..3, strategy, level 1..8 and a lossless and a lossy
    # channel, against the loop that advanced a CodecState object
    rng = np.random.default_rng(404)
    statuses = set()
    for n in (1, 2, 3):
        for kind in ParamStrategy.KINDS:
            for levels in range(1, 9):
                for lossy in (False, True):
                    eps = rng.uniform(0.0, 0.3, size=n)
                    a = rng.uniform(-1.5, 1.5, size=n)
                    # a single level never contracts; |a_n*| >= 4 diverges within the horizon
                    low, high = (4.0, 8.0) if levels == 1 else (1.0 + eps[-1] + 0.05, 2.5)
                    a[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(low, high)
                    plant = UncertainPlant(n=n, a_star=tuple(a), eps=tuple(eps))
                    signs = tuple(int(s) for s in rng.choice([-1, 1], size=n))
                    strategy = ParamStrategy(kind, seed=int(rng.integers(0, 2**31)), signs=signs)
                    p = float(rng.uniform(0.05, 0.5)) if lossy else 0.0
                    setup = (QuantizerSpec(levels), ChannelConfig(p, 9 * levels))
                    y0 = float(rng.uniform(-0.5, 0.5))
                    want = oracles.run_closed_loop(plant, *setup, strategy, 300, y0)
                    # the strategy holds no state, so the same instance replays the draws
                    got = run_closed_loop(plant, *setup, strategy, 300, y0)
                    assert _trace_fields(got) == _trace_fields(want)
                    statuses.add(got.status)
    assert statuses == {COMPLETED, CONVERGED, DIVERGED}
    # both prediction ends overflow, so sigma is NaN: both loops end the trial diverged
    plant = UncertainPlant(1, (1e300,), (0.0,), y0_bound=1e10)
    setup = (plant, QuantizerSpec(4), ChannelConfig(0.0), ParamStrategy(), 300, 4e9)
    got, want = run_closed_loop(*setup), oracles.run_closed_loop(*setup)
    assert _trace_fields(got) == _trace_fields(want) == ([4e9], [1e10], DIVERGED, 1)


@st.composite
def _loop_configs(draw):
    n = draw(st.integers(1, 3))
    eps = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    a_star = [draw(st.floats(-3.0, 3.0)) for _ in range(n - 1)]
    margin = draw(st.floats(1e-6, 3.0))  # keeps |a_n*| - eps_n > 1
    a_star.append(draw(st.sampled_from((-1.0, 1.0))) * (1.0 + eps[-1] + margin))
    plant = UncertainPlant(n=n, a_star=tuple(a_star), eps=tuple(eps))
    levels = draw(st.integers(1, 64))
    p = draw(st.floats(0.0, 0.95, exclude_max=True))
    channel = ChannelConfig(p, draw(st.integers(0, 2**31)))
    signs = tuple(draw(st.sampled_from((-1, 1))) for _ in range(n))
    strategy = ParamStrategy(draw(st.sampled_from(ParamStrategy.KINDS)), draw(st.integers(0, 2**31)), signs)
    # drawn as montecarlo._trial_setup draws a trial's initial output
    y0 = (2.0 * uniform01(draw(st.integers(0, 2**63)), 0) - 1.0) * plant.y0_bound / 2.0
    return plant, levels, channel, strategy, y0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_loop_configs())
def test_loop_invariants_property(config):
    # no SaturationError escapes, and the oracle decoder replays the trace
    plant, levels, channel, strategy, y0 = config
    trace = run_closed_loop(plant, QuantizerSpec(levels), channel, strategy, 120, y0)
    _replay_and_check(plant, levels, trace, channel, strategy)


@st.composite
def _wide_experiments(draw):
    plant, levels, channel, strategy, _ = draw(_loop_configs())
    trials = draw(st.integers(BATCH_MIN_TRIALS, 2 * BATCH_MIN_TRIALS))
    exp = Experiment(trials=trials, steps=60, base_seed=draw(st.integers(0, 2**31)), strategy=strategy)
    return plant, QuantizerSpec(levels), channel, exp


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_experiments())
def test_batched_experiment_property(config):
    # wide experiments run batched, raise no SaturationError and equal the
    # stacked reduction over scalar traces bit for bit
    got = run_experiment(*config)
    want = oracles.run_experiment(*config)
    assert np.array_equal(got.mean_sq_y, want.mean_sq_y, equal_nan=True)
    assert np.array_equal(got.mean_sq_sigma, want.mean_sq_sigma, equal_nan=True)
    assert (got.slope, got.verdict) == (want.slope, want.verdict)
    assert (got.diverged_trials, got.converged_trials) == (want.diverged_trials, want.converged_trials)


def test_batched_loop_raises_on_the_boundary_orbit():
    # the orbit of the xfail below, entered as one trial among sixteen; the
    # others start off the dyadic grid, whose points can also reach a cell
    # boundary.  The batched loop raises the error the CodecState oracle (and the
    # one-trial run) meets first
    plant = UncertainPlant(1, (2.0,), (0.1,))
    y0 = [(t - 7.5) / 21.0 for t in range(16)]
    y0[5] = plant.y0_bound / 2.0
    seeds = np.arange(16, dtype=np.uint64)
    channel, strategy = ChannelConfig(0.0, seeds), ParamStrategy("greedy_adversarial", seed=seeds)
    channels, strategies = trial_configs(channel), trial_configs(strategy)
    with pytest.raises(SaturationError) as batched:
        run_closed_loop_batch(plant, QuantizerSpec(4), channel, strategy, 400, y0)
    with pytest.raises(SaturationError) as scalar:
        oracles.run_closed_loop(plant, QuantizerSpec(4), channels[5], strategies[5], 400, y0[5])
    with pytest.raises(SaturationError) as runtime:
        run_closed_loop(plant, QuantizerSpec(4), channels[5], strategies[5], 400, y0[5])
    assert str(batched.value) == str(scalar.value) == str(runtime.value)
    y0[5] = 0.1
    rows = run_closed_loop_batch(plant, QuantizerSpec(4), channel, strategy, 400, y0)
    assert len(rows) == 16


def _row_fields(y, sigma, status):
    """A trial's y and sigma as float.hex (which tells -0.0 from 0.0), status and length."""
    return [float(v).hex() for v in y], [float(v).hex() for v in sigma], status, len(y)


def _closed_batch_matches_oracle(plant, levels, channel, strategy, y0, steps):
    """Run the batch; each row must equal its trial's trace under the CodecState oracle,
    and so must run_closed_loop's trace of that trial.  Each row's (length, status)."""
    quantizer = QuantizerSpec(levels)
    rows = run_closed_loop_batch(plant, quantizer, channel, strategy, steps, y0)
    assert len(rows) == len(y0)
    for row, channel, strategy, start in zip(rows, trial_configs(channel),
                                             trial_configs(strategy), y0):
        want = oracles.run_closed_loop(plant, quantizer, channel, strategy, steps, start)
        got = run_closed_loop(plant, quantizer, channel, strategy, steps, start)
        assert _row_fields(*row) == _row_fields(want.y, want.sigma, want.status)
        assert _row_fields(got.y, got.sigma, got.status) == _row_fields(*row)
    return [(len(y), status) for y, _, status in rows]


# order -> plant whose trials converge at 2^20 levels, and one whose trials diverge at 2,
# each within 300 steps at loss probability 0 and 0.3
ENDING_PLANTS = {
    CONVERGED: {1: UncertainPlant(1, (2.0,), (1e-3,)),
                2: UncertainPlant(2, (2.0, 1.1), (1e-3, 1e-3)),
                3: UncertainPlant(3, (-2.0, 0.1, 1.05), (1e-4, 1e-4, 1e-4))},
    DIVERGED: {1: UncertainPlant(1, (30.0,), (0.5,)),
               2: UncertainPlant(2, (30.0, 1.5), (0.5, 0.1)),
               3: UncertainPlant(3, (-30.0, 0.4, 1.5), (0.5, 0.1, 0.1))},
}


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("kind", ParamStrategy.KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_rows_replay_under_the_codec_state_oracle(n, kind, p):
    # row by row, not through a mean-square report, which hides y's sign and when each
    # trial ended; under loss the trials leave the batch at different steps
    trials = 10
    index = np.arange(trials, dtype=np.uint64)
    channel = ChannelConfig(p, 100 * n + index)
    strategy = ParamStrategy(kind, 500 + index, (1, -1, 1)[:n])
    y0 = [uniform01(900 + t, 0) - 0.5 for t in range(trials)]
    for end, levels in ((CONVERGED, 2**20), (DIVERGED, 2)):
        ends = _closed_batch_matches_oracle(ENDING_PLANTS[end][n], levels, channel,
                                            strategy, y0, 300)
        assert end in {status for _, status in ends} <= {end, COMPLETED}
        assert end == CONVERGED or max(length for length, _ in ends) < 300
        if p:
            assert len({length for length, _ in ends}) > 1


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5])
def test_block_draws_give_the_per_step_bits(p):
    # received and iid_params on uint64 counter arrays, in blocks of 7 over 30 steps (the
    # last block short) and over time-share sub-steps m*j + i, give each step's bits
    plant = UncertainPlant(3, (0.3, -1.0, 2.5), (0.1, 0.0, 0.05))
    seeds = [0, 1, 123, 2**63, 2**63 + 5, 2**64 - 1]
    keys = np.array(seeds, dtype=np.uint64)

    def per_step(seed, k):
        return bool(received(p, seed, k)), tuple(map(float.hex, iid_params(plant, seed, k)))

    def blocks(key, counters):
        """Each counter's (flag, coefficient bits); a key array adds an axis of slots last."""
        shape = np.broadcast_shapes(counters.shape, np.shape(key))
        flags = np.broadcast_to(received(p, key, counters), shape)
        coeffs = np.stack([np.broadcast_to(c, shape) for c in iid_params(plant, key, counters)], -1)
        return flags, coeffs

    def entries(flags, coeffs):
        return [(bool(f), tuple(map(float.hex, c.tolist()))) for f, c in zip(flags, coeffs)]

    steps, block, m = 30, 7, 3
    for first in range(0, steps, block):
        counters = np.arange(first, min(first + block, steps), dtype=np.uint64)
        for t, seed in enumerate(seeds):
            want = [per_step(seed, k) for k in range(first, min(first + block, steps))]
            assert entries(*blocks(seed, counters)) == want
            flags, coeffs = blocks(keys, counters[:, None])
            assert entries(flags[:, t], coeffs[:, t]) == want
    for j in range(0, steps // m, 4):  # cycles j..j+3 of an m-slot time share
        counters = np.arange(m * j, m * (j + 4), dtype=np.uint64)
        for seed in seeds:
            want = [per_step(seed, m * jj + i) for jj in range(j, j + 4) for i in range(m)]
            assert entries(*blocks(seed, counters)) == want
    with pytest.raises(OverflowError):  # an int64 counter cannot take the golden-ratio step
        received(0.5, 1, np.arange(3))
    # the slots' tables hold the same bits: a Trial's as floats, a Lockstep's by slot
    channel, strategy = ChannelConfig(p, keys), ParamStrategy("iid_uniform", keys)
    channels, strategies = trial_configs(channel), trial_configs(strategy)
    slots = Lockstep(channel, strategy, steps, len(seeds))
    for first in range(0, steps, block):
        count = min(block, steps - first)
        slots.draw(p, plant, first, count)
        for t, (channel, strategy) in enumerate(zip(channels, strategies)):
            want = [per_step(strategy.seed, k) for k in range(first, first + count)]
            trial = Trial(channel, strategy)
            trial.draw(p, plant, first, count)
            assert [(bool(f), tuple(map(float.hex, c))) for f, c in zip(trial.got, trial.coeffs)
                    ] == want
            assert entries(slots.got[:, t], slots.coeffs[:, :, t]) == want
        assert p or slots.got.all()  # p = 0 delivers every packet, from drawn bits
        slots.draw(p, None, first, count)  # no coefficients without an iid_uniform plant
        assert slots.coeffs == [None] * count
    # a Trial that draws all 30 steps in one block holds the 7-step blocks' bits
    for channel, strategy in zip(channels, strategies):
        whole = Trial(channel, strategy)
        whole.draw(p, plant, 0, steps)
        assert [(bool(f), tuple(map(float.hex, c))) for f, c in zip(whole.got, whole.coeffs)
                ] == [per_step(strategy.seed, k) for k in range(steps)]


def _drawn_blocks(monkeypatch) -> list:
    """Record (first, count) of every block a Trial draws."""
    blocks, draw = [], Trial.draw
    monkeypatch.setattr(Trial, "draw", lambda self, p, plant, first, count: (
        blocks.append((first, count)) or draw(self, p, plant, first, count)))
    return blocks


@pytest.mark.parametrize("kind", ["nominal", "iid_uniform"])
def test_one_trial_blocks_split_at_the_cap(monkeypatch, kind):
    # one-trial runs drawn in 5-step blocks replay the oracle's traces bit for bit: trials
    # that end mid-block, on a block's last step, and at the horizon
    monkeypatch.setattr(codec_loop, "TRIAL_BLOCK_STEPS", 5)
    blocks = _drawn_blocks(monkeypatch)
    plant, quantizer = UncertainPlant(1, (2.0,), (0.05,)), QuantizerSpec(64)
    exp = Experiment(trials=30, steps=250, base_seed=3, strategy=ParamStrategy(kind))
    lengths = set()
    for t in range(exp.trials):
        blocks.clear()
        ch, strat, y0 = _trial_setup(plant, ChannelConfig(0.5), exp, t)
        want = oracles.run_closed_loop(plant, quantizer, ch, strat, exp.steps, y0)
        got = run_closed_loop(plant, quantizer, ch, strat, exp.steps, y0)
        bits = [([*map(float.hex, trace.y + trace.sigma)], trace.status) for trace in (got, want)]
        assert bits[0] == bits[1]
        assert blocks == [(first, 5) for first in range(0, len(got), 5)]
        lengths.add(len(got))
    assert {n % 5 == 0 for n in lengths if n < exp.steps} == {True, False}
    assert exp.steps in lengths


def test_one_trial_at_the_work_cap_draws_capped_tables(monkeypatch):
    # one trial may run MAX_WORK // 6 = 10^6 steps; its tables hold TRIAL_BLOCK_STEPS of them
    # (here its one level diverges it within the first table)
    blocks = _drawn_blocks(monkeypatch)
    plant, steps = UncertainPlant(1, (2.0,), (0.1,)), MAX_WORK // 6
    trace = run_closed_loop(plant, QuantizerSpec(1), ChannelConfig(0.1, 2),
                            ParamStrategy("iid_uniform", 3), steps, 0.25)
    assert trace.status == DIVERGED and len(trace) < TRIAL_BLOCK_STEPS < steps
    assert blocks == [(0, TRIAL_BLOCK_STEPS)]


def test_both_retire_rules_agree_at_the_guards():
    # a Trial and a Lockstep both end trials by end_status: at each guard and the double
    # past it, at inf and at NaN they end the same trials.  A trial of order n ends
    # converged only once its next range and the n - 1 it recorded last are below the guard
    sigmas = [CONVERGED_SIGMA, float(np.nextafter(CONVERGED_SIGMA, 0.0)), DIVERGED_SIGMA,
              float(np.nextafter(DIVERGED_SIGMA, np.inf)), float("inf"), float("nan")]
    nexts = np.array([[1.0] * 6, sigmas, sigmas])  # each trial's next sigma at steps 0-2
    ranges = np.array([[1.0] * 6, [1.0] * 6, sigmas])  # and the range it records there
    diverged = [(2, DIVERGED)] * 3
    ends = {1: [(3, COMPLETED), (2, CONVERGED), (3, COMPLETED), *diverged],
            2: [(3, COMPLETED), (3, CONVERGED), (3, COMPLETED), *diverged],
            3: [(3, COMPLETED), (3, COMPLETED), (3, COMPLETED), *diverged]}

    def lockstep(columns, order):
        seeds = np.zeros(len(columns), np.uint64)
        slots = Lockstep(ChannelConfig(0.0, seeds), ParamStrategy(seed=seeds), 3, len(columns),
                         order)
        for k in range(3):
            live = slots.live
            state = slots.retire(k, np.zeros(live.size), ranges[k, columns][live],
                                 nexts[k, columns][live], live)
            if state is None:
                break
            assert np.array_equal(state[1], slots.live)  # the rows leave with their trials
        return [(len(y), status) for y, _, status in slots.rows()]

    def one_trial(column, order):
        trial = Trial(ChannelConfig(0.0), ParamStrategy(), order)
        for k in range(3):
            state = trial.retire(k, 0.0, float(ranges[k, column]), float(nexts[k, column]), "row")
            if state is None:
                break
            assert state[1] == "row"
        return len(trial.trace), trial.trace.status

    for order, want in ends.items():
        assert [one_trial(t, order) for t in range(6)] == want
        assert lockstep(list(range(6)), order) == want
        assert [lockstep([t], order)[0] for t in range(6)] == want


@pytest.mark.parametrize("layout", ["scalar", "batched"])
def test_one_small_range_does_not_end_a_higher_order_trial(layout):
    # with a1* = eps1 = 0 the prediction of y[1] reads only the zeros before the start, so
    # sigma[1] sits at SIGMA_MIN while the next range reads cell 0 (width Y0/N): such a
    # trial runs on.  A trial that does converge ends at the first step whose next range
    # and last recorded one are both below the guard
    def run(plant, levels, p):
        if layout == "scalar":
            trace = run_closed_loop(plant, QuantizerSpec(levels), ChannelConfig(p, 5),
                                    ParamStrategy(), 400, 0.3)
            return trace.sigma, trace.status
        seeds = np.arange(3, dtype=np.uint64)
        rows = run_closed_loop_batch(plant, QuantizerSpec(levels), ChannelConfig(p, seeds),
                                     ParamStrategy(seed=seeds), 400, [0.3, -0.1, 0.2])
        return list(rows[0][1]), rows[0][2]

    sigma, status = run(UncertainPlant(2, (0.0, 3.0), (0.0, 0.1)), 2, 0.5)
    assert sigma[1] == SIGMA_MIN and (len(sigma), status) == (400, COMPLETED)
    sigma, status = run(UncertainPlant(2, (0.0, 2.0), (0.0, 1e-3)), 2**20, 0.0)
    assert status == CONVERGED and sigma[1] == SIGMA_MIN and sigma[-1] < CONVERGED_SIGMA
    assert not any(a < CONVERGED_SIGMA and b < CONVERGED_SIGMA for a, b in zip(sigma, sigma[1:]))


@pytest.mark.xfail(strict=True, raises=SaturationError, reason="known defect: an orbit "
                   "started on the range boundary drifts out of it by rounding")
def test_orbit_from_range_boundary_stays_in_range():
    plant = UncertainPlant(1, (2.0,), (0.1,))
    strategy = ParamStrategy("greedy_adversarial")
    run_closed_loop(plant, QuantizerSpec(4), ChannelConfig(0.0, 0), strategy, 400, 0.5)


def test_overflowed_range_ends_diverged():
    # from the top cell both prediction ends overflow to +inf, so sigma = inf - inf is NaN;
    # the scalar and the batched loop both end such a trial as diverged
    plant = UncertainPlant(1, (1e300,), (0.0,), y0_bound=1e10)
    trace = run_closed_loop(plant, QuantizerSpec(4), ChannelConfig(0.0), ParamStrategy(), 10, 4e9)
    assert (trace.status, trace.sigma) == (DIVERGED, [1e10])
    starts = [4e9, -4e9, 0.0, 1e9]
    seeds = np.zeros(4, np.uint64)
    rows = run_closed_loop_batch(plant, QuantizerSpec(4), ChannelConfig(0.0, seeds),
                                 ParamStrategy(seed=seeds), 10, starts)
    assert [(list(s), status) for _, s, status in rows] == [([1e10], DIVERGED)] * 4


def test_batched_breach_names_the_first_trial_of_the_earliest_step():
    # dyadic starts whose orbits leave the range: 0 at step 17, +-1/2 at step 14.
    # The batch names trial 6, the lower-numbered of the two that breach at step 14
    plant = UncertainPlant(1, (2.0,), (0.1,))
    y0 = [(t - 7.5) / 21.0 for t in range(16)]
    y0[3], y0[6], y0[9] = 0.0, -0.5, 0.5
    seeds = np.arange(16, dtype=np.uint64)
    channel, strategy = ChannelConfig(0.0, seeds), ParamStrategy("greedy_adversarial", seed=seeds)
    channels, strategies = trial_configs(channel), trial_configs(strategy)
    messages = []
    for t in (3, 6, 9):
        with pytest.raises(SaturationError) as scalar:
            oracles.run_closed_loop(plant, QuantizerSpec(4), channels[t], strategies[t], 400, y0[t])
        with pytest.raises(SaturationError) as runtime:
            run_closed_loop(plant, QuantizerSpec(4), channels[t], strategies[t], 400, y0[t])
        assert str(runtime.value) == str(scalar.value)
        messages.append(str(scalar.value))
    assert len(set(messages)) == 3
    with pytest.raises(SaturationError) as batched:
        run_closed_loop_batch(plant, QuantizerSpec(4), channel, strategy, 400, y0)
    assert str(batched.value) == messages[1]


def test_start_check_refuses_nan_and_names_the_worst_start():
    plant = UncertainPlant(1, (2.0,), (0.0,))
    with pytest.raises(ValueError, match="exceeds half"):
        run_closed_loop(plant, QuantizerSpec(4), ChannelConfig(0.0), ParamStrategy(), 5,
                        float("nan"))
    seeds = np.zeros(3, np.uint64)
    with pytest.raises(ValueError, match=r"\|y0\| = 0.75 exceeds half"):
        run_closed_loop_batch(plant, QuantizerSpec(4), ChannelConfig(0.0, seeds),
                              ParamStrategy(seed=seeds), 5, [0.1, -0.75, 0.6])


def test_batches_refuse_seed_counts_that_are_not_the_trials():
    # a batch's trials are its starts: an int seed, or a seed array of another length, is
    # refused in both loops, not shared among the trials or cut to fit
    two, three = np.zeros(2, np.uint64), np.zeros(3, np.uint64)
    targets = ((run_closed_loop_batch, UncertainPlant(1, (2.0,), (0.0,))),
               (run_timeshare_loop_batch, TimeShareConfig(2.0, 0.0, 2)))
    for seeds in ((0, three), (three, 0), (two, three), (three, two), (two, two)):
        channel, strategy = ChannelConfig(0.0, seeds[0]), ParamStrategy(seed=seeds[1])
        for run, target in targets:
            with pytest.raises(ValueError, match="one strategy seed and one start per trial"):
                run(target, QuantizerSpec(4), channel, strategy, 5, [0.1, -0.2, 0.3])


@pytest.mark.parametrize("y0", [0.8, -0.8, float("nan")])
def test_oracle_refuses_the_starts_the_loop_refuses(y0):
    # inside the declared bound Y0 = 1 but outside [-Y0/2, Y0/2], the range the
    # quantizer covers at the start: both loops refuse it before the first step
    setup = (UncertainPlant(1, (2.0,), (0.0,)), QuantizerSpec(4), ChannelConfig(0.0),
             ParamStrategy(), 5, y0)
    with pytest.raises(ValueError, match="exceeds half the declared bound 1.0"):
        run_closed_loop(*setup)
    with pytest.raises(ValueError, match="exceeds half the declared bound 1.0"):
        oracles.run_closed_loop(*setup)
