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

from .channel import ChannelConfig, draw
from .interval import Interval, measure, midpoint, scale_product
from .plant import ParamStrategy, UncertainPlant, realize_params, step_unchecked

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
        if self.levels < 1:
            raise ValueError(f"quantizer needs >= 1 levels, got {self.levels}")


def quantize(levels: int, v: float) -> int:
    """Uniform N-level quantizer on [-1/2, 1/2]; the top cell is closed.

    Raises SaturationError if v lies outside the range by more than a tiny
    numerical slack; within the slack v is clamped.
    """
    if v > 0.5 or v < -0.5:
        if v > 0.5 + SATURATION_TOL or v < -0.5 - SATURATION_TOL:
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
    early once sigma passes the convergence or divergence guard.
    """
    if abs(y0) > plant.y0_bound / 2.0:
        raise ValueError(
            f"|y0| = {abs(y0)} exceeds half the declared bound {plant.y0_bound}, "
            "the range the quantizer covers at the start"
        )
    n = plant.n
    levels = quantizer.levels
    sigma = plant.y0_bound
    center = 0.0
    # the last n estimation intervals, oldest-first; before time 0 the
    # output is known to be zero
    cells = [Interval(0.0, 0.0)] * n
    history = [0.0] * (n - 1) + [y0]
    trace = SimTrace()

    needs_context = strategy.kind == "greedy_adversarial"
    fixed_params = None
    if strategy.kind in ("nominal", "fixed_vertex"):
        fixed_params = realize_params(plant, strategy)

    for k in range(steps):
        symbol = quantize(levels, (history[-1] - center) / sigma)
        gamma = draw(channel, k)
        cell = decode_cell(levels, sigma, center, symbol if gamma else LOST)
        cells.pop(0)
        cells.append(cell)
        u = control(plant, cells)
        trace.append(k, history[-1], sigma, gamma, u, symbol, cell, center)
        sigma, center = advance_scaling(predict(plant, cells), u)
        if fixed_params is not None:
            params = fixed_params
        elif needs_context:
            params = realize_params(
                plant, strategy, context=lambda p: step_unchecked(history, u, p)
            )
        else:
            params = realize_params(plant, strategy)
        y_next = step_unchecked(history, u, params)
        history.pop(0)
        history.append(y_next)
        if sigma < CONVERGED_SIGMA:
            trace.status = CONVERGED
            return trace
        if sigma > DIVERGED_SIGMA:
            trace.status = DIVERGED
            return trace
    return trace
