"""Quantized feedback loop: encoder, decoder, controller, and stepper.

Per step k the encoder quantizes (y[k] - c[k]) / sigma[k] with an N-level
uniform quantizer on [-1/2, 1/2], the channel delivers or drops the
symbol, the decoder turns the outcome into an estimation interval for
y[k], the controller applies certainty-equivalent state feedback on the
interval midpoints, and both sides advance the shared scaling state.  One
loop body steps this sequence for one trial on floats (run_closed_loop)
and for a lockstep batch on trial slots (run_closed_loop_batch).

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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import _MASK, ChannelConfig, received
from .interval import FLOATS, SLOTS, Interval, Ops
from .plant import ParamStrategy, UncertainPlant, iid_params, realize_params, step_unchecked

# Lower guard on sigma: keeps logs finite and avoids denormal underflow.
SIGMA_MIN = 1e-300
CONVERGED_SIGMA = 1e-150
DIVERGED_SIGMA = 1e150
SATURATION_TOL = 1e-9
SATURATION_EDGE = 0.5 + SATURATION_TOL  # the largest |input| quantize takes
# How many steps one draw fills with flags and iid coefficients (a draw has a fixed cost):
# BLOCK_STEPS in a lockstep batch, whose tables grow with its trials (64 x 6 doubles a trial
# at order 6), and a one-trial run's whole horizon up to TRIAL_BLOCK_STEPS (1 MB at order 6).
BLOCK_STEPS, TRIAL_BLOCK_STEPS = 64, 4096

COMPLETED = "completed"
CONVERGED = "converged"
DIVERGED = "diverged"


class SaturationError(RuntimeError):
    """Quantizer input left [-1/2, 1/2]; the scaling law was violated."""


@dataclass(frozen=True)
class QuantizerSpec:
    levels: int
    flag: str = field(default="--N", compare=False, repr=False)  # where a refused level came from

    def __post_init__(self):
        if not 1 <= self.levels <= 2**53:  # the batched loop holds symbols in doubles
            raise ValueError(f"quantizer needs 1 to 2^53 levels, got {self.levels} for {self.flag}")
        if self.levels != int(self.levels):
            raise ValueError(f"quantizer needs an integer level count, got {self.levels} for {self.flag}")
        object.__setattr__(self, "levels", int(self.levels))  # a float count runs as its int


def quantize(levels, v, ops: Ops = FLOATS):
    """Uniform N-level quantizer on [-1/2, 1/2]; the top cell is closed.

    v is one input or one per slot (levels one count or one per slot); the
    cell index is an int for a float and a double per slot for an array.
    Raises SaturationError, naming the first slot breaching, if v lies
    outside the range by more than a tiny numerical slack or is NaN;
    within the slack v falls in the end cell.
    """
    inside = abs(v) <= SATURATION_EDGE  # False for NaN
    if not ops.all(inside):
        breach = np.extract(np.logical_not(inside), v)[0]
        raise SaturationError(f"quantizer input {float(breach)} outside [-1/2, 1/2]")
    return ops.minimum(ops.maximum(ops.floor((v + 0.5) * levels), 0), levels - 1)


def decode_cell(levels, sigma, center, symbol, got, ops: Ops = FLOATS) -> Interval:
    """Estimation interval for the output given the channel outcome.

    If the symbol got through this is its cell of the range
    [center - sigma/2, center + sigma/2]; on a loss it is the whole range.
    """
    lo, top, w = center - sigma / 2.0, center + sigma / 2.0, sigma / levels
    last = symbol == levels - 1
    cell = Interval(ops.where(last, top - w, lo + symbol * w),
                    ops.where(last, top, lo + (symbol + 1) * w))
    if ops.all(got):  # nothing lost: skip the choice (every lossless step, most lossy ones)
        return cell
    return Interval(ops.where(got, cell.lo, lo), ops.where(got, cell.hi, top))


def predict(boxes: Sequence[Interval], cells: Sequence[Interval], ops: Ops = FLOATS) -> tuple:
    """One-step prediction set from the coefficient boxes and the last n estimation intervals.

    cells are oldest-first, so box i meets cells[n - 1 - i]; the set is the
    Minkowski sum of the products, so its length is exactly the sum of the
    product-hull lengths.  Each hull is scale_product's, formed in place, and
    the set's ends come back as a plain (lo, hi) pair, for advance_scaling.
    """
    minimum, maximum = ops.minimum, ops.maximum
    lo = hi = 0.0
    for (a_lo, a_hi), (y_lo, y_hi) in zip(boxes, reversed(cells)):
        p1, p2 = a_lo * y_lo, a_lo * y_hi  # two pairs: no tuple is built
        p3, p4 = a_hi * y_lo, a_hi * y_hi
        lo = lo + minimum(minimum(minimum(p1, p2), p3), p4)  # never in place: may be arrays
        hi = hi + maximum(maximum(maximum(p1, p2), p3), p4)
    return lo, hi


def control(coeffs: Sequence[float], cells: Sequence[Interval]) -> float:
    """Certainty-equivalent feedback on the interval midpoints: coefficient i (the
    plant's a*, or a time-share cycle's a*^m) meets cells[n - 1 - i], as box i does in predict."""
    u = 0.0
    for a, (lo, hi) in zip(coeffs, reversed(cells)):
        u -= a * (lo + hi) / 2.0
    return u


def advance_scaling(prediction: tuple, u, ops: Ops = FLOATS) -> tuple:
    """Next (sigma, center): the prediction's length, at least SIGMA_MIN, and its shifted midpoint."""
    lo, hi = prediction
    return ops.maximum(hi - lo, SIGMA_MIN), (lo + hi) / 2.0 + u


def check_start(y0, y0_bound: float) -> None:
    """Refuse an initial output (a float or an array) outside [-Y0/2, Y0/2], or NaN."""
    worst = np.max(np.abs(y0))
    if not worst <= y0_bound / 2.0:
        raise ValueError(f"|y0| = {worst} exceeds half the declared bound {y0_bound}, "
                         "the range the quantizer covers at the start")


def end_status(sigma: float, recorded=(), order: int = 1) -> str | None:
    """How a trial ends at its next range sigma, else None: converged once sigma and the
    order - 1 last recorded ranges are all below CONVERGED_SIGMA (the next predictions read
    the last `order` cells), diverged past DIVERGED_SIGMA or at NaN (an overflowed range)."""
    if sigma < CONVERGED_SIGMA:
        earlier = recorded[max(len(recorded) + 1 - order, 0):]
        return CONVERGED if all(s < CONVERGED_SIGMA for s in earlier) else None
    return None if sigma <= DIVERGED_SIGMA else DIVERGED


@dataclass
class SimTrace:
    """One scalar trial: the output y[k] and range sigma[k] at each step it ran, and how it ended."""

    y: list[float] = field(default_factory=list)
    sigma: list[float] = field(default_factory=list)
    status: str = COMPLETED

    def __len__(self) -> int:
        return len(self.y)


class Trial:
    """The slot of a one-trial run: its channel and strategy seeds, the tables of the
    current block (draw), and its SimTrace; order, the plant's, is how many last ranges
    end_status reads."""

    def __init__(self, channel: ChannelConfig, strategy: ParamStrategy, order: int = 1):
        self.seeds, self.param_seeds, self.trace = channel.seed, strategy.seed, SimTrace()
        self.order, self.got, self.coeffs = order, None, None

    def draw(self, p: float, plant: UncertainPlant | None, first: int, count: int) -> None:
        """Draw the block of steps first to first + count - 1: got[j] is step first + j's
        reception flag (received, at every p) and coeffs[j] its iid_uniform coefficients
        (iid_params) for a plant, None without one."""
        counters = np.arange(first, first + count, dtype=np.uint64)
        self.got = received(p, self.seeds, counters).tolist()
        self.coeffs = [None] * count if plant is None else list(
            zip(*(c.tolist() for c in iid_params(plant, self.param_seeds, counters))))

    def retire(self, k: int, y: float, sigma_k: float, *state):
        """Record step k's y and sigma_k; end the trial and return None if end_status
        ends it at the next sigma, state[0], else return state."""
        trace = self.trace
        trace.y.append(y)
        trace.sigma.append(sigma_k)
        sigma = state[0]
        if sigma < CONVERGED_SIGMA or not sigma <= DIVERGED_SIGMA:  # end_status's guards
            status = end_status(sigma, trace.sigma, self.order)
            if status:
                trace.status = status
                return None
        return state


class Lockstep:
    """Slots of a lockstep batch: the live trials with their seeds (channel.seed and
    strategy.seed, one uint64 a trial, or an int for one trial), the tables of the current
    block (draw), and each trial's y and sigma rows, length and status; order as Trial's."""

    def __init__(self, channel: ChannelConfig, strategy: ParamStrategy, steps: int, trials: int,
                 order: int = 1):
        self.seeds, self.param_seeds = (np.array(seed & _MASK, np.uint64, ndmin=1)
                                        for seed in (channel.seed, strategy.seed))
        if not self.seeds.shape == self.param_seeds.shape == (trials,):
            raise ValueError("need one channel seed, one strategy seed and one start per trial")
        self.live = np.arange(trials)
        self.y, self.sigma = np.zeros((trials, steps)), np.zeros((trials, steps))
        self.length, self.status = [steps] * trials, [COMPLETED] * trials
        self.order, self.got, self.coeffs = order, None, None

    def draw(self, p: float, plant: UncertainPlant | None, first: int, count: int) -> None:
        """Trial.draw for the live trials: got[j] and coeffs[j] hold one slot per live
        trial on their last axis (coeffs[j] is None without a plant)."""
        counters = np.arange(first, first + count, dtype=np.uint64)[:, None]
        self.got = received(p, self.seeds, counters)
        self.coeffs = [None] * count if plant is None else np.stack(
            iid_params(plant, self.param_seeds, counters), axis=1)

    def retire(self, k: int, y: np.ndarray, sigma_k: np.ndarray, *state):
        """Record step k's y and sigma_k for the live trials; end those that end_status
        ends at their next sigma, state[0] (length k + 1); return state (arrays, or
        lists or Intervals of them) for the others, or None once none is left.  The
        block's flags, and its coefficients when drawn, leave with their trials too."""
        self.y[self.live, k], self.sigma[self.live, k] = y, sigma_k
        sigma = state[0]
        done = (sigma < CONVERGED_SIGMA) | ~(sigma <= DIVERGED_SIGMA)  # end_status's guards
        if not done.any():
            return state
        for i in np.flatnonzero(done):
            t = self.live[i]
            status = end_status(sigma[i], self.sigma[t, :k + 1], self.order)
            if status:
                self.length[t], self.status[t] = k + 1, status
            else:
                done[i] = False
        if not done.any():
            return state

        keep = ~done

        def cut(row):
            if isinstance(row, np.ndarray):  # the trial slots are the last axis
                return row[..., keep]
            if isinstance(row, (list, Interval)):
                return (Interval._make if isinstance(row, Interval) else list)(map(cut, row))
            return row  # a coeffs entry without a plant: None for every trial

        self.live, self.seeds, self.param_seeds, self.got, self.coeffs, *state = map(
            cut, (self.live, self.seeds, self.param_seeds, self.got, self.coeffs, *state))
        return tuple(state) if self.live.size else None

    def rows(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        return [(self.y[t, :n], self.sigma[t, :n], status)
                for t, (n, status) in enumerate(zip(self.length, self.status))]


def _run(plant: UncertainPlant, levels: int, p: float, strategy: ParamStrategy, steps: int,
         slots: Trial | Lockstep, ops: Ops, sigma, center, y0) -> None:
    """The closed loop on a Trial with FLOATS or a Lockstep with SLOTS: slots draws
    each block's flags and coefficients, records each step and ends the trials that
    end_status ends."""
    n = plant.n
    boxes = [plant.box(i) for i in range(n)]
    kind = strategy.kind  # nominal and fixed_vertex realize one vector for every step
    fixed = realize_params(plant, strategy) if kind in ("nominal", "fixed_vertex") else None
    iid = plant if kind == "iid_uniform" else None  # its steps take their drawn rows as params
    # the last n estimation intervals, oldest-first; before time 0 the output is 0 (center)
    cells = [Interval(center, center)] * n
    history = [center] * (n - 1) + [y0]
    per_draw = BLOCK_STEPS if isinstance(slots, Lockstep) else TRIAL_BLOCK_STEPS
    for first in range(0, steps, per_draw):
        block = range(first, min(first + per_draw, steps))
        slots.draw(p, iid, first, len(block))
        for j, k in enumerate(block):
            y = history[-1]
            symbol = quantize(levels, (y - center) / sigma, ops)
            cell = decode_cell(levels, sigma, center, symbol, slots.got[j], ops)
            cells.pop(0)
            cells.append(cell)
            u = control(plant.a_star, cells)
            sigma_next, center = advance_scaling(predict(boxes, cells, ops), u, ops)
            params = slots.coeffs[j] if iid else fixed or realize_params(
                plant, strategy, history, u, ops=ops)
            history.append(step_unchecked(history, u, params))
            history.pop(0)
            state = slots.retire(k, y, sigma, sigma_next, center, history, cells)
            if state is None:
                return
            sigma, center, history, cells = state


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
    early once end_status ends the trial (at its last n ranges).
    """
    check_start(y0, plant.y0_bound)
    trial = Trial(channel, strategy, plant.n)
    _run(plant, quantizer.levels, channel.p, strategy, steps, trial, FLOATS,
         plant.y0_bound, 0.0, y0)
    return trial.trace


def run_closed_loop_batch(
    plant: UncertainPlant,
    quantizer: QuantizerSpec,
    channel: ChannelConfig,
    strategy: ParamStrategy,
    steps: int,
    y0: Sequence[float],
) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """run_closed_loop for many trials in lockstep, one array slot per trial.

    channel.seed, strategy.seed (uint64 arrays) and y0 hold one entry per trial, and
    every trial runs at channel.p with strategy's kind and signs, on run_closed_loop's
    loop body on SLOTS: trial t's (y, sigma, status) equal its trace's bit for bit.  A
    range breach raises quantize's error for the first trial among those breaching earliest.
    """
    y0 = np.asarray(y0, float)
    check_start(y0, plant.y0_bound)
    slots = Lockstep(channel, strategy, steps, len(y0), plant.n)
    with np.errstate(all="ignore"):
        _run(plant, quantizer.levels, channel.p, strategy, steps, slots, SLOTS,
             np.full(len(y0), plant.y0_bound), np.zeros(len(y0)), y0)
    return slots.rows()
