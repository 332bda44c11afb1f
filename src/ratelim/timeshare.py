"""m-periodic time-sharing protocol for scalar plants.

One measurement is quantized at total resolution N^m and sent as m
packets of log2(N) bits; a lost packet is retransmitted, so after a cycle
with s successes the decoder holds the first s packets and knows the
measurement to resolution N^s.  Averaged over a cycle the scheme realizes
a noninteger effective level N = (total levels)^(1/m), at the price of
observing the plant m times less often, which lets parameter uncertainty
accumulate: beyond a critical duration no total level stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._search import first_passing, split_integers
from .channel import ChannelConfig
from .codec_loop import (BLOCK_STEPS, Lockstep, QuantizerSpec, SimTrace, advance_scaling,
                         check_start, quantize)
from .interval import SLOTS, Interval, midpoint, scale_product
from .plant import ParamStrategy, UncertainPlant, realize_params


@dataclass(frozen=True)
class TimeShareConfig:
    """The scalar plant and the cycle duration m: the time-share analogue of UncertainPlant."""

    a_star: float
    eps: float
    m: int
    y0_bound: float = 1.0

    def __post_init__(self):  # the plant checks a*, eps and Y0, once per config
        object.__setattr__(self, "_plant", UncertainPlant(1, (self.a_star,), (self.eps,),
                                                          self.y0_bound))
        if self.m < 1:
            raise ValueError(f"cycle duration must be >= 1, got {self.m}")

    def plant(self) -> UncertainPlant:
        return self._plant


def deltas(a_star: float, eps: float, m: int) -> tuple[float, float]:
    """Cycle growth spread: (|a*|+eps)^m - |a*|^m and |a*|^m - (|a*|-eps)^m."""
    a = abs(a_star)
    return (a + eps) ** m - a**m, a**m - (a - eps) ** m


def kappa_bar(cfg: TimeShareConfig, levels: float, p: float) -> float:
    """Exact E[kappa^2] over the binomial count s of received packets per cycle, at per-slot
    level `levels` (real >= 1) and loss probability p: kappa is the worst-case growth factor
    of a cycle at its realized total resolution M = levels^s."""
    ChannelConfig(p)  # checks p
    if not (math.isfinite(levels) and levels >= 1.0):
        raise ValueError(f"need a finite per-slot level >= 1, got {levels}")
    a_pow, (dp, dm) = abs(cfg.a_star) ** cfg.m, deltas(cfg.a_star, cfg.eps, cfg.m)
    total = 0.0
    q = 1.0 - p
    for s in range(cfg.m + 1):
        weight = math.comb(cfg.m, s) * q**s * p ** (cfg.m - s)
        m_level = levels**s
        kappa = (a_pow + max(m_level / 2.0, 1.0) * dp + max(m_level / 2.0 - 1.0, 0.0) * dm) / m_level
        total += weight * kappa**2
    return total


def lossless_bound(a_star: float, eps: float, m: int) -> tuple[float, bool]:
    """Average-rate threshold for a lossless channel, and its feasibility.

    Feasible iff the growth spread (delta+ + delta-)/2 stays below one;
    past that point error accumulation over a cycle outruns any total
    resolution and the bound is infinite.
    """
    a = abs(a_star)
    dp, dm = deltas(a_star, eps, m)
    half_spread = (dp + dm) / 2.0
    if half_spread >= 1.0:
        return math.inf, False
    r0 = math.log2(a + eps)
    r1 = math.log2((a**m - dm) / (1.0 - half_spread)) / m
    return max(r0, r1), True


def min_feasible_average_level(
    cfg: TimeShareConfig, p: float, cap: int = 1_000_000
) -> tuple[int, float] | None:
    """Smallest integer total level with E[kappa^2] < 1 at loss p, and its m-th root.

    kappa > 0 falls with the realized resolution M (for M >= 2 it is
    (|a*|-eps)^m / M + (delta+ + delta-)/2) and every M = total^(s/m)
    grows with the total, so E[kappa^2] is nonincreasing in the total and
    a monotone search finds the minimum.  None if none passes up to cap.
    Each probe is one kappa_bar call.
    """

    def passes(total: int) -> bool:
        return kappa_bar(cfg, total ** (1.0 / cfg.m), p) < 1.0

    total = first_passing(passes, 2, cap, split_integers)
    return None if total is None else (total, total ** (1.0 / cfg.m))


def power_hull(a_star: float, eps: float, m: int) -> Interval:
    """Exact hull of {a^m : a in [a*-eps, a*+eps]}.

    The box excludes zero, so t -> t^m is monotone on it and the hull is
    an endpoint pair.  This also equals the hull of m-fold products of
    possibly different box elements, because each factor is extremal
    independently on a fixed-sign box.
    """
    lo = (a_star - eps) ** m
    hi = (a_star + eps) ** m
    return Interval(lo, hi) if lo <= hi else Interval(hi, lo)


def run_timeshare_loop_batch(
    cfg: TimeShareConfig,
    quantizer: QuantizerSpec,
    channels: Sequence[ChannelConfig],
    strategies: Sequence[ParamStrategy],
    cycles: int,
    y0: Sequence[float],
) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """Simulate the protocol for many trials in lockstep, one array slot per trial.

    Trial t runs with channels[t], strategies[t] and y0[t]; all share p, kind
    and signs.  Its row holds y and sigma at each cycle start, and how it
    ended.  A cycle that receives s of its m packets decodes the sample to
    resolution N^s, N the quantizer's levels: N^m cells at most 2^53, which a
    double in [-1/2, 1/2] tells apart (the batch holds cell indices in doubles).
    Mid-cycle inputs are zero; the deadbeat-style input lands on the last
    slot.  A slot's float operations do not depend on the other trials, so a
    trial's row is the same in any batch.  A range breach raises quantize's
    error for the first trial among those breaching earliest.
    """
    n_slot = quantizer.levels
    if n_slot > 1 and (cfg.m > 53 or n_slot**cfg.m > 2**53):  # 2^m passes 2^53 at m = 54
        raise ValueError(f"--N {n_slot} at --m {cfg.m} gives more than 2^53 total levels")
    y = np.asarray(y0, float)
    check_start(y, cfg.y0_bound)
    plant, m, trials, p = cfg.plant(), cfg.m, len(y), channels[0].p
    levels = np.array([float(n_slot**s) for s in range(m + 1)])  # by packets received
    a_nom_pow = cfg.a_star**m
    hull = power_hull(cfg.a_star, cfg.eps, m)
    kind = strategies[0].kind
    fixed = realize_params(plant, strategies[0]) if kind in ("nominal", "fixed_vertex") else None
    iid = plant if kind == "iid_uniform" else None
    slots = Lockstep(channels, strategies, cycles)
    sigma, center = np.full(trials, cfg.y0_bound), np.zeros(trials)
    per_block = max(BLOCK_STEPS // m, 1)  # cycles; slot i of cycle j is sub-step m*j + i
    with np.errstate(all="ignore"):
        for first in range(0, cycles, per_block):
            block = range(first, min(first + per_block, cycles))
            slots.draw(p, iid, m * first, m * len(block))
            for jj, j in enumerate(block):
                res = levels[sum(slots.got[m * jj : m * jj + m])]
                idx = quantize(res, (y - center) / sigma, SLOTS)
                w = sigma / res
                lo = center - sigma / 2.0 + idx * w
                cell = Interval(lo, np.where(idx == res - 1.0, center + sigma / 2.0, lo + w))
                u_end = -a_nom_pow * midpoint(cell)
                sigma_next, center = advance_scaling(scale_product(hull, cell, SLOTS), u_end, SLOTS)
                state = slots.retire(j, y, sigma, sigma_next, center, y, u_end)
                if state is None:
                    return slots.rows()
                sigma, center, y, u_end = state
                for i in range(m):  # the plant through the cycle, input only on the last slot
                    u_step = u_end if i == m - 1 else 0.0
                    (a,) = fixed or realize_params(plant, strategies[0], [y], u_step,
                                                   slots.coeffs[m * jj + i], SLOTS)
                    y = a * y + u_step
    return slots.rows()


def run_timeshare_loop(
    cfg: TimeShareConfig,
    quantizer: QuantizerSpec,
    channel: ChannelConfig,
    strategy: ParamStrategy,
    cycles: int,
    y0: float,
) -> SimTrace:
    """One trial of run_timeshare_loop_batch, as a trace."""
    ((y, sigma, status),) = run_timeshare_loop_batch(cfg, quantizer, [channel], [strategy],
                                                     cycles, [y0])
    return SimTrace(y.tolist(), sigma.tolist(), status)
