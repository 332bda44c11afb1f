"""Closed-form rate and loss limits for mean-square stabilization.

All bounds are driven by the magnitude of the product of the plant's
nominal eigenvalues (|lambda|, the last AR coefficient) and the
uncertainty radius of that coefficient.  Rates are in bits per packet.
Infeasible combinations (nonpositive radicands or denominators) are
reported as math.inf plus a feasible flag rather than NaN, so sweep
output can mark "no rate suffices" regions deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .channel import ChannelConfig


def _magnitude(lambda_abs: float, eps: float = 0.0) -> float:
    """|lambda|, once lambda is finite, the uncertainty radius eps finite and nonnegative,
    and |lambda| > 1."""
    if not math.isfinite(lambda_abs):
        raise ValueError(f"lambda must be finite, got {lambda_abs}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"uncertainty radius must be finite and nonnegative, got {eps}")
    lam = abs(lambda_abs)
    if lam <= 1.0:
        raise ValueError(f"need |lambda| > 1, got {lam}")
    return lam


@dataclass(frozen=True)
class NecessaryBounds:
    r_nec0: float
    r_nec1: float
    r_nec: float
    p_nec: float
    feasible: bool


def necessary_bounds(lambda_abs: float, eps_n: float, p: float) -> NecessaryBounds:
    """Necessary data rate and loss probability for an uncertain plant.

    The rate bound is the larger of two branch bounds (the crossover sits
    exactly at one bit); the loss bound shrinks with uncertainty and
    collapses entirely at eps_n >= 1, where no channel can stabilize the
    plant.  Callers wanting the standing assumption |lambda| - eps_n > 1
    enforced should construct an UncertainPlant first; here uncertainty
    beyond that limit simply reports as infeasible.
    """
    lam = _magnitude(lambda_abs, eps_n)
    ChannelConfig(p)  # checks p
    outer = lam + eps_n
    denom_p = outer**2 - eps_n**2
    p_nec = (1.0 - eps_n**2) / denom_p
    radicand = 1.0 - p * outer**2
    sq = math.sqrt(1.0 - p)
    if radicand <= 0.0:
        r_nec0 = math.inf
        r_nec1 = math.inf
    else:
        root = math.sqrt(radicand)
        r_nec0 = math.log2(outer * sq / root)
        denom1 = root - eps_n * sq
        r_nec1 = math.log2((lam - eps_n) * sq / denom1) if denom1 > 0.0 else math.inf
    feasible = eps_n < 1.0 and p < p_nec
    return NecessaryBounds(
        r_nec0=r_nec0,
        r_nec1=r_nec1,
        r_nec=max(r_nec0, r_nec1),
        p_nec=p_nec,
        feasible=feasible,
    )


class YouBounds(NamedTuple):
    r_y: float
    p_y: float


def you_bounds(lambda_abs: float, p: float) -> YouBounds:
    """Exact rate/loss condition for a known (certain) plant."""
    lam = _magnitude(lambda_abs)
    ChannelConfig(p)  # checks p
    p_y = 1.0 / lam**2
    if p >= p_y:
        return YouBounds(math.inf, p_y)
    r_y = math.log2(lam * math.sqrt(1.0 - p) / math.sqrt(1.0 - p * lam**2))
    return YouBounds(r_y, p_y)


def phat_bound(lambda_abs: float, eps1: float) -> float:
    """Norm-bounded-uncertainty sufficient rate (scalar plant, lossless).

    Returns math.inf when the bound's denominator (or numerator) is
    nonpositive, i.e. the condition cannot be met at any rate.
    """
    lam = _magnitude(lambda_abs, eps1)
    num = lam - eps1 * (lam + eps1)
    den = 1.0 - eps1 * (2.0 * lam + 2.0 * eps1 + 1.0)
    if den <= 0.0 or num <= 0.0:
        return math.inf
    return math.log2(num / den)


def martins_bound(lambda_abs: float, eps1: float) -> float:
    """Stochastic-uncertainty sufficient rate (scalar plant, lossless)."""
    lam = _magnitude(lambda_abs, eps1)
    if eps1 >= 1.0:
        return math.inf
    return math.log2(lam / (1.0 - eps1))

