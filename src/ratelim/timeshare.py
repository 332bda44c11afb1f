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

from ._search import first_passing, split_integers
from .channel import ChannelConfig, draw
from .codec_loop import SimTrace, advance_scaling, check_start, end_status, quantize
from .interval import Interval, midpoint, scale_product
from .plant import ParamStrategy, UncertainPlant, realize_params


@dataclass(frozen=True)
class TimeShareConfig:
    a_star: float
    eps: float
    m: int
    levels: float  # per-slot levels; integer >= 2 to simulate, real >= 1 to analyze
    p: float = 0.0
    y0_bound: float = 1.0

    def __post_init__(self):
        self.plant()  # checks a*, eps and Y0
        ChannelConfig(self.p)  # checks p
        if not (math.isfinite(self.levels) and self.levels >= 1.0):
            raise ValueError(f"need a finite per-slot level >= 1, got {self.levels}")
        if self.m < 1:
            raise ValueError(f"cycle duration must be >= 1, got {self.m}")

    def plant(self) -> UncertainPlant:
        return UncertainPlant(
            n=1, a_star=(self.a_star,), eps=(self.eps,), y0_bound=self.y0_bound
        )


def deltas(a_star: float, eps: float, m: int) -> tuple[float, float]:
    """Cycle growth spread: (|a*|+eps)^m - |a*|^m and |a*|^m - (|a*|-eps)^m."""
    a = abs(a_star)
    return (a + eps) ** m - a**m, a**m - (a - eps) ** m


def kappa(a_star: float, eps: float, m: int, m_level: float) -> float:
    """Worst-case per-cycle growth factor at realized total resolution M."""
    if m_level < 1.0:
        raise ValueError(f"realized level must be >= 1, got {m_level}")
    dp, dm = deltas(a_star, eps, m)
    a = abs(a_star)
    return (a**m + max(m_level / 2.0, 1.0) * dp + max(m_level / 2.0 - 1.0, 0.0) * dm) / m_level


def kappa_bar(cfg: TimeShareConfig) -> float:
    """Exact E[kappa^2] over the binomial count of received packets per cycle."""
    total = 0.0
    q = 1.0 - cfg.p
    for s in range(cfg.m + 1):
        weight = math.comb(cfg.m, s) * q**s * cfg.p ** (cfg.m - s)
        total += weight * kappa(cfg.a_star, cfg.eps, cfg.m, cfg.levels**s) ** 2
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
    a_star: float, eps: float, p: float, m: int, cap: int = 1_000_000
) -> tuple[int, float] | None:
    """Smallest integer total level with E[kappa^2] < 1, and its m-th root.

    kappa > 0 falls with the realized resolution M (for M >= 2 it is
    (|a*|-eps)^m / M + (delta+ + delta-)/2) and every M = total^(s/m)
    grows with the total, so E[kappa^2] is nonincreasing in the total and
    a monotone search finds the minimum.  None if none passes up to cap.
    """

    def passes(total: int) -> bool:
        cfg = TimeShareConfig(a_star=a_star, eps=eps, m=m, levels=total ** (1.0 / m), p=p)
        return kappa_bar(cfg) < 1.0

    total = first_passing(passes, 2, cap, split_integers)
    return None if total is None else (total, total ** (1.0 / m))


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


def run_timeshare_loop(
    cfg: TimeShareConfig,
    channel: ChannelConfig,
    strategy: ParamStrategy,
    cycles: int,
    y0: float,
) -> SimTrace:
    """Simulate the protocol; one trace row per cycle-start sample.

    The gamma column records the number of packets received in the cycle
    and the symbol column the full-resolution quantizer index.  Mid-cycle
    inputs are zero; the deadbeat-style input lands on the last slot.
    """
    n_slot = int(cfg.levels)
    if n_slot != cfg.levels or n_slot < 2:
        raise ValueError(f"simulation needs an integer per-slot level >= 2, got {cfg.levels}")
    check_start(y0, cfg.y0_bound)
    plant = cfg.plant()
    total = n_slot**cfg.m
    a_nom_pow = cfg.a_star**cfg.m
    hull = power_hull(cfg.a_star, cfg.eps, cfg.m)
    sigma = cfg.y0_bound
    center = 0.0
    y = y0
    trace = SimTrace()
    for j in range(cycles):
        v = (y - center) / sigma
        full_symbol = quantize(total, v)
        received = sum(draw(channel, cfg.m * j + i) for i in range(cfg.m))
        res = n_slot**received
        cell_idx = quantize(res, v)
        w = sigma / res
        lo = center - sigma / 2.0 + cell_idx * w
        hi = center + sigma / 2.0 if cell_idx == res - 1 else lo + w
        cell = Interval(lo, hi)
        u_end = -a_nom_pow * midpoint(cell)
        pred = scale_product(hull, cell)
        trace.append(cfg.m * j, y, sigma, received, u_end, full_symbol, cell, center)
        # evolve the plant through the cycle, input only on the last slot
        for i in range(cfg.m):
            u_step = u_end if i == cfg.m - 1 else 0.0
            params = realize_params(
                plant, strategy, cfg.m * j + i, context=lambda q: q[0] * y + u_step
            )
            y = params[0] * y + u_step
        sigma, center = advance_scaling(pred, u_end)
        if status := end_status(sigma):
            trace.status = status
            return trace
    return trace
