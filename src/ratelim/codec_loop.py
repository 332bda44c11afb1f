"""Quantized feedback loop: encoder, decoder, controller, and stepper.

Per step k the encoder quantizes (y[k] - c[k]) / sigma[k] with an N-level
uniform quantizer on [-1/2, 1/2], the channel delivers or drops the
symbol, the decoder turns the outcome into an estimation interval for
y[k], the controller applies certainty-equivalent state feedback on the
interval midpoints, and both sides advance the shared scaling state.

Center tracking: the classical zoom encoder quantizes y/sigma, which
presumes the containing set is centered at zero.  Under the midpoint
feedback law the set containing y[k+1] is the one-step prediction set
translated by u[k], whose midpoint is generally nonzero.  We therefore
keep an explicit center c[k] (translated prediction midpoint), computable
on both sides of the channel from shared information.  Every interval
length, and hence every stability bound, is unchanged by the shift; it
only guarantees the quantizer never saturates.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import _MASK, ChannelConfig, draw, uniform01
from .interval import Interval, measure, midpoint, scale_product
from .plant import ParamStrategy, UncertainPlant, iid_params, realize_params, step_unchecked

# Lower guard on sigma: keeps logs finite and avoids denormal underflow.
SIGMA_MIN = 1e-300
CONVERGED_SIGMA = 1e-150
DIVERGED_SIGMA = 1e150
SATURATION_TOL = 1e-9

LOST = None

COMPLETED = "completed"
CONVERGED = "converged"
DIVERGED = "diverged"


class SaturationError(RuntimeError):
    """Quantizer input left [-1/2, 1/2]; the scaling law was violated."""


@dataclass(frozen=True)
class QuantizerSpec:
    levels: int

    def __post_init__(self):
        if not 1 <= self.levels <= 2**53:  # the batched loop holds symbols in doubles
            raise ValueError(f"quantizer needs 1 to 2^53 levels, got {self.levels}")


def quantize(levels: int, v: float) -> int:
    """Uniform N-level quantizer on [-1/2, 1/2]; the top cell is closed.

    Raises SaturationError if v lies outside the range by more than a tiny
    numerical slack, or is NaN; within the slack v is clamped.
    """
    if not -0.5 <= v <= 0.5:
        if not -0.5 - SATURATION_TOL <= v <= 0.5 + SATURATION_TOL:
            raise SaturationError(f"quantizer input {v} outside [-1/2, 1/2]")
        v = 0.5 if v > 0.5 else -0.5
    i = int((v + 0.5) * levels)
    return levels - 1 if i >= levels else i


def decode_cell(levels: int, sigma: float, center: float, symbol: int | None) -> Interval:
    """Estimation interval for the output given the channel outcome.

    On reception of symbol i this is cell i of the range
    [center - sigma/2, center + sigma/2]; on loss (symbol is LOST) it is
    the whole range.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lo = center - sigma / 2.0
    if symbol is LOST:
        return Interval(lo, center + sigma / 2.0)
    if not 0 <= symbol < levels:
        raise ValueError(f"symbol {symbol} outside alphabet of size {levels}")
    w = sigma / levels
    if symbol == levels - 1:
        return Interval(center + sigma / 2.0 - w, center + sigma / 2.0)
    return Interval(lo + symbol * w, lo + (symbol + 1) * w)


def predict(plant: UncertainPlant, cells: Sequence[Interval]) -> Interval:
    """One-step prediction set from the last n estimation intervals.

    cells are oldest-first; the set is the Minkowski sum of the products
    of each coefficient box with its matching interval, so its length is
    exactly the sum of the product-hull lengths.
    """
    n = plant.n
    if len(cells) != n:
        raise ValueError(f"need {n} stored cells, got {len(cells)}")
    a_star, eps = plant.a_star, plant.eps
    acc_lo = 0.0
    acc_hi = 0.0
    for i in range(n):
        a, e = a_star[i], eps[i]
        prod = scale_product(Interval(a - e, a + e), cells[n - 1 - i])
        acc_lo += prod.lo
        acc_hi += prod.hi
    return Interval(acc_lo, acc_hi)


def control(plant: UncertainPlant, cells: Sequence[Interval]) -> float:
    """Certainty-equivalent feedback on the interval midpoints."""
    n = plant.n
    if len(cells) != n:
        raise ValueError(f"need {n} stored cells, got {len(cells)}")
    u = 0.0
    for i in range(n):
        c = cells[n - 1 - i]
        u -= plant.a_star[i] * (c.lo + c.hi) / 2.0
    return u


def advance_scaling(prediction: Interval, u: float) -> tuple[float, float]:
    """Next (sigma, center): minimal admissible range and its shifted midpoint."""
    sigma = measure(prediction)
    if sigma < SIGMA_MIN:
        sigma = SIGMA_MIN
    return sigma, midpoint(prediction) + u


def check_start(y0, y0_bound: float) -> None:
    """Refuse an initial output (a float or an array) outside [-Y0/2, Y0/2], or NaN."""
    worst = np.max(np.abs(y0))
    if not worst <= y0_bound / 2.0:
        raise ValueError(f"|y0| = {worst} exceeds half the declared bound {y0_bound}, "
                         "the range the quantizer covers at the start")


def end_status(sigma: float) -> str | None:
    """How a trial ends once sigma passes a guard, else None; NaN (an overflowed range) diverged."""
    if sigma < CONVERGED_SIGMA:
        return CONVERGED
    return None if sigma <= DIVERGED_SIGMA else DIVERGED


@dataclass
class SimTrace:
    """Per-step record of one closed-loop trial.

    center is the decoder-range midpoint used at each step; it is kept
    for invariant checking and deliberately left out of the CSV schema.
    """

    k: list[int] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    sigma: list[float] = field(default_factory=list)
    gamma: list[int] = field(default_factory=list)
    u: list[float] = field(default_factory=list)
    symbol: list[int] = field(default_factory=list)
    cell_lo: list[float] = field(default_factory=list)
    cell_hi: list[float] = field(default_factory=list)
    center: list[float] = field(default_factory=list)
    status: str = COMPLETED

    def append(self, k, y, sigma, gamma, u, symbol, cell, center):
        self.k.append(k)
        self.y.append(y)
        self.sigma.append(sigma)
        self.gamma.append(gamma)
        self.u.append(u)
        self.symbol.append(symbol)
        self.cell_lo.append(cell.lo)
        self.cell_hi.append(cell.hi)
        self.center.append(center)

    def __len__(self) -> int:
        return len(self.k)

    def to_csv(self, stream: io.TextIOBase) -> None:
        w = csv.writer(stream)
        w.writerow(["k", "y", "sigma", "gamma", "u", "symbol", "cell_lo", "cell_hi"])
        for row in zip(
            self.k, self.y, self.sigma, self.gamma, self.u, self.symbol,
            self.cell_lo, self.cell_hi,
        ):
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def run_closed_loop(
    plant: UncertainPlant,
    quantizer: QuantizerSpec,
    channel: ChannelConfig,
    strategy: ParamStrategy,
    steps: int,
    y0: float,
) -> SimTrace:
    """Run the synchronized loop for `steps` steps starting from y0.

    sigma starts at the plant's initial output bound (the minimal choice),
    center at 0, so the quantizer covers y0 in [-Y0/2, Y0/2].  Terminates
    early once sigma passes the convergence or divergence guard (end_status).
    """
    check_start(y0, plant.y0_bound)
    n = plant.n
    levels = quantizer.levels
    sigma = plant.y0_bound
    center = 0.0
    # the last n estimation intervals, oldest-first; before time 0 the
    # output is known to be zero
    cells = [Interval(0.0, 0.0)] * n
    history = [0.0] * (n - 1) + [y0]
    trace = SimTrace()

    kind = strategy.kind  # nominal and fixed_vertex realize one vector for every step
    fixed = realize_params(plant, strategy, 0) if kind in ("nominal", "fixed_vertex") else None
    for k in range(steps):
        symbol = quantize(levels, (history[-1] - center) / sigma)
        gamma = draw(channel, k)
        cell = decode_cell(levels, sigma, center, symbol if gamma else LOST)
        cells.pop(0)
        cells.append(cell)
        u = control(plant, cells)
        trace.append(k, history[-1], sigma, gamma, u, symbol, cell, center)
        sigma, center = advance_scaling(predict(plant, cells), u)
        params = fixed or realize_params(plant, strategy, k, lambda p: step_unchecked(history, u, p))
        history.append(step_unchecked(history, u, params))
        history.pop(0)
        if status := end_status(sigma):
            trace.status = status
            return trace
    return trace


def run_closed_loop_batch(
    plant: UncertainPlant,
    quantizer: QuantizerSpec,
    channels: Sequence[ChannelConfig],
    strategies: Sequence[ParamStrategy],
    steps: int,
    y0: Sequence[float],
) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """run_closed_loop for many trials in lockstep, one array slot per trial.

    Trial t runs with channels[t], strategies[t] and y0[t]; all share
    p, kind and signs.  Each slot repeats the scalar operations in order, so
    trial t's (y, sigma, status) equal its trace's bit for bit.  A range breach
    raises quantize's error for the first trial among those breaching earliest.
    """
    y0 = np.asarray(y0, float)
    check_start(y0, plant.y0_bound)
    n, trials, levels, p = plant.n, len(y0), float(quantizer.levels), channels[0].p
    kind = strategies[0].kind
    fixed = realize_params(plant, strategies[0], 0) if kind in ("nominal", "fixed_vertex") else None
    boxes = [plant.box(i) for i in range(n)]
    ys, sigmas = np.zeros((trials, steps)), np.zeros((trials, steps))
    live, length, status = np.arange(trials), [steps] * trials, [COMPLETED] * trials
    seeds = np.array([ch.seed & _MASK for ch in channels], dtype=np.uint64)
    param_seeds = np.array([s.seed & _MASK for s in strategies], dtype=np.uint64)
    sigma, center = np.full(trials, plant.y0_bound), np.zeros(trials)
    cells = [Interval(center, center)] * n
    history = [center] * (n - 1) + [y0]
    with np.errstate(all="ignore"):
        for k in range(steps):
            y = history[-1]
            v = (y - center) / sigma
            breach = ~(np.abs(v) <= 0.5 + SATURATION_TOL)  # quantize's test, NaN included
            if breach.any():
                quantize(1, float(v[breach.argmax()]))  # raises its SaturationError
            v = np.minimum(np.maximum(v, -0.5), 0.5)
            symbol = np.minimum(np.floor((v + 0.5) * levels), levels - 1.0)
            lo, top, w = center - sigma / 2.0, center + sigma / 2.0, sigma / levels
            last = symbol == levels - 1.0
            cell = Interval(np.where(last, top - w, lo + symbol * w),
                            np.where(last, top, lo + (symbol + 1.0) * w))
            if p != 0.0:
                got = uniform01(seeds, k) >= p
                cell = Interval(np.where(got, cell.lo, lo), np.where(got, cell.hi, top))
            cells = cells[1:] + [cell]
            u = control(plant, cells)
            ys[live, k], sigmas[live, k] = y, sigma
            acc_lo = acc_hi = 0.0
            # predict; the range check left every cell finite, so no product is
            # NaN and min/max agree with Python's up to a zero's sign, which no
            # sum starting from 0.0 keeps
            for i in range(n):
                p1, p2, p3, p4 = (a * end for a in boxes[i] for end in cells[n - 1 - i])
                acc_lo = acc_lo + np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
                acc_hi = acc_hi + np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
            sigma = np.maximum(acc_hi - acc_lo, SIGMA_MIN)  # NaN stays, as in advance_scaling
            center = (acc_lo + acc_hi) / 2.0 + u
            if kind == "iid_uniform":
                params = iid_params(plant, param_seeds, k)
            elif kind == "greedy_adversarial":  # realize_params' sweep, all trials at once
                params = list(plant.a_star)
                for i, (a_lo, a_hi) in enumerate(boxes):
                    if plant.eps[i] != 0.0:
                        params[i] = a_lo
                        y_lo = abs(step_unchecked(history, u, params))
                        params[i] = a_hi
                        y_hi = abs(step_unchecked(history, u, params))
                        params[i] = np.where(y_hi >= y_lo, a_hi, a_lo)
            else:
                params = fixed
            history = history[1:] + [step_unchecked(history, u, params)]
            done = (sigma < CONVERGED_SIGMA) | ~(sigma <= DIVERGED_SIGMA)  # end_status's rule
            if done.any():
                for t, end in zip(live[done], sigma[done]):
                    length[t], status[t] = k + 1, end_status(end)
                keep = ~done
                live, seeds, param_seeds = live[keep], seeds[keep], param_seeds[keep]
                sigma, center = sigma[keep], center[keep]
                history = [h[keep] for h in history]
                cells = [Interval(c.lo[keep], c.hi[keep]) for c in cells]
                if not live.size:
                    break
    return [(ys[t, :length[t]], sigmas[t, :length[t]], status[t]) for t in range(trials)]
