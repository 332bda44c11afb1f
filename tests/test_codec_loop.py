import io

import numpy as np
import pytest

from oracles import product_measure_cases
from ratelim.channel import ChannelConfig, draw
from ratelim.codec_loop import (
    COMPLETED,
    CONVERGED,
    DIVERGED,
    LOST,
    CodecState,
    QuantizerSpec,
    SaturationError,
    advance_scaling,
    control,
    decode_cell,
    predict,
    quantize,
    run_closed_loop,
)
from ratelim.interval import Interval, measure
from ratelim.plant import ParamStrategy, UncertainPlant


def test_quantizer_spec():
    assert QuantizerSpec(4).rate_bits == 2.0
    with pytest.raises(ValueError):
        QuantizerSpec(0)


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


def test_decode_cell_examples():
    assert decode_cell(2, 1.0, 0.0, 1) == Interval(0.0, 0.5)
    assert decode_cell(8, 1.0, 0.0, LOST) == Interval(-0.5, 0.5)
    assert decode_cell(4, 2.0, 3.0, 0) == Interval(2.0, 2.5)
    with pytest.raises(ValueError):
        decode_cell(4, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        decode_cell(4, 0.0, 0.0, 1)


def test_decode_cells_partition_the_range():
    sigma, center, n = 1.7, -0.4, 5
    cells = [decode_cell(n, sigma, center, i) for i in range(n)]
    assert cells[0].lo == pytest.approx(center - sigma / 2)
    assert cells[-1].hi == pytest.approx(center + sigma / 2)
    for a, b in zip(cells, cells[1:]):
        assert a.hi == pytest.approx(b.lo)
        assert measure(a) == pytest.approx(sigma / n)


def test_predict_examples():
    p1 = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    assert predict(p1, [Interval(0.3, 0.5)]) == pytest.approx((0.57, 1.05))
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.5), eps=(0.05, 0.05))
    assert predict(p2, [Interval(0, 0), Interval(0, 0)]) == Interval(0, 0)
    # oldest-first cells: Y[k-1] = [0.2, 0.3], Y[k] = [0, 0.1]
    got = predict(p2, [Interval(0.2, 0.3), Interval(0.0, 0.1)])
    a1 = Interval(0.95, 1.05)
    a2 = Interval(2.45, 2.55)
    want_lo = a1.lo * 0.0 + a2.lo * 0.2
    want_hi = a1.hi * 0.1 + a2.hi * 0.3
    assert got == pytest.approx((want_lo, want_hi))


def test_control_examples():
    p1 = UncertainPlant(n=1, a_star=(2.0,), eps=(0.1,))
    assert control(p1, [Interval(0, 0)]) == 0.0
    assert control(p1, [Interval(0.3, 0.5)]) == pytest.approx(-0.8)
    p2 = UncertainPlant(n=2, a_star=(1.0, 2.5), eps=(0.0, 0.0))
    # midpoints: y_hat[k] = 0.1, y_hat[k-1] = -0.2
    cells = [Interval(-0.3, -0.1), Interval(0.05, 0.15)]
    assert control(p2, cells) == pytest.approx(0.4)


def test_advance_scaling_examples():
    sigma, center = advance_scaling(Interval(0.57, 1.05), -0.8)
    assert sigma == pytest.approx(0.48)
    assert center == pytest.approx(0.01)
    sigma, center = advance_scaling(Interval(0.0, 0.0), 0.7)
    assert sigma == 1e-300
    assert center == 0.7


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
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,), y0_bound=1.0)
    with pytest.raises(ValueError):
        run_closed_loop(
            plant, QuantizerSpec(4), ChannelConfig(0.0, 5), ParamStrategy("nominal"), 10, 1.5
        )


def _random_plant(rng):
    n = int(rng.integers(1, 4))
    eps = rng.uniform(0.0, 0.3, size=n)
    a = rng.uniform(-1.5, 1.5, size=n)
    a[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + eps[-1] + 0.05, 3.0)
    return UncertainPlant(n=n, a_star=tuple(a), eps=tuple(eps), y0_bound=1.0)


def _replay_and_check(plant, levels, trace, channel):
    """Re-derive decoder state from the recorded channel outcomes.

    Checks containment, the exact measure recursion, and that the replayed
    scaling state matches what the loop recorded, bit for bit.
    """
    state = CodecState(plant=plant, levels=levels, sigma=plant.y0_bound)
    for k in range(len(trace)):
        assert state.sigma == trace.sigma[k]
        assert state.center == trace.center[k]
        assert draw(channel, k) == trace.gamma[k]
        cells_before = list(state.cells)
        state.observe(trace.gamma[k], trace.symbol[k])
        cell = state.cells[-1]
        assert cell.lo == trace.cell_lo[k] and cell.hi == trace.cell_hi[k]
        assert cell.lo - 1e-12 <= trace.y[k] <= cell.hi + 1e-12
        u = control(plant, state.cells)
        assert u == trace.u[k]
        expected_sigma = sum(
            product_measure_cases(plant.a_star[i], plant.eps[i], state.cells[plant.n - 1 - i])
            for i in range(plant.n)
        )
        state.advance(u)
        if state.sigma > 1e-290:
            assert state.sigma == pytest.approx(expected_sigma, abs=1e-12 * max(1, expected_sigma))
        del cells_before


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
        _replay_and_check(plant, levels, trace, channel)


def test_encoder_decoder_synchrony_bit_identical():
    plant = UncertainPlant(n=2, a_star=(0.4, 2.2), eps=(0.1, 0.08), y0_bound=1.0)
    channel = ChannelConfig(p=0.2, seed=17)
    trace = run_closed_loop(
        plant, QuantizerSpec(4), channel, ParamStrategy("iid_uniform", seed=3), 80, 0.2
    )
    enc = CodecState(plant=plant, levels=4, sigma=plant.y0_bound)
    dec = CodecState(plant=plant, levels=4, sigma=plant.y0_bound)
    for k in range(len(trace)):
        gamma, symbol = trace.gamma[k], trace.symbol[k]
        # the decoder never sees the symbol on loss; the encoder may not use it
        enc.observe(gamma, symbol)
        dec.observe(gamma, symbol if gamma else None)
        enc.advance(control(plant, enc.cells))
        dec.advance(control(plant, dec.cells))
        assert enc.sigma == dec.sigma and enc.center == dec.center
        assert enc.cells == dec.cells


def test_trace_csv_roundtrip():
    plant = UncertainPlant(n=1, a_star=(2.0,), eps=(0.0,))
    trace = run_closed_loop(
        plant, QuantizerSpec(4), ChannelConfig(0.1, 5), ParamStrategy("nominal"), 20, 0.3
    )
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,y,sigma,gamma,u,symbol,cell_lo,cell_hi"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[2]) == trace.sigma[0]
