"""Uncertain autoregressive plant and parameter realization strategies.

The plant is the scalar recursion

    y[k+1] = a1[k]*y[k] + a2[k]*y[k-1] + ... + an[k]*y[k-n+1] + u[k]

with y[k] = 0 for k < 0 and each coefficient ai[k] drawn (possibly per
step) from the box [ai* - eps_i, ai* + eps_i].  The controllable
canonical state-space form is equivalent; the simulator works on the
recursion directly.  The product of the nominal eigenvalues equals an*,
which is what all the rate/loss bounds depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import uniform01
from .interval import FLOATS, Interval, Ops


@dataclass(frozen=True)
class UncertainPlant:
    n: int
    a_star: tuple[float, ...]
    eps: tuple[float, ...]
    y0_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a_star", tuple(float(a) for a in self.a_star))
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if self.n < 1:
            raise ValueError(f"plant order must be >= 1, got {self.n}")
        if len(self.a_star) != self.n or len(self.eps) != self.n:
            raise ValueError(
                f"need {self.n} nominal coefficients and radii, got "
                f"{len(self.a_star)} and {len(self.eps)}"
            )
        if not all(math.isfinite(v) for v in (*self.a_star, *self.eps, self.y0_bound)):
            raise ValueError(
                f"plant parameters must be finite: a*={self.a_star}, eps={self.eps}, "
                f"Y0={self.y0_bound}"
            )
        if any(e < 0.0 for e in self.eps):
            raise ValueError(f"uncertainty radii must be nonnegative: {self.eps}")
        if abs(self.a_star[-1]) - self.eps[-1] <= 1.0:
            raise ValueError(
                "plant violates |an*| - eps_n > 1 "
                f"(got |{self.a_star[-1]}| - {self.eps[-1]})"
            )
        if self.y0_bound <= 0.0:
            raise ValueError(f"initial output bound must be positive, got {self.y0_bound}")

    def box(self, i: int) -> Interval:
        """Uncertainty interval of coefficient i (0-based)."""
        return Interval(self.a_star[i] - self.eps[i], self.a_star[i] + self.eps[i])


def step_unchecked(history: Sequence[float], u: float, params: Sequence[float]) -> float:
    """One plant step: y_next = sum_i params[i] * history[n-1-i] + u.

    history holds the last n outputs oldest-first, i.e.
    (y[k-n+1], ..., y[k]); params[i] is the realized coefficient a_{i+1}
    multiplying y[k-i].  The coefficients are not checked against the box.
    """
    acc = u
    n = len(params)
    for i in range(n):
        acc = acc + params[i] * history[n - 1 - i]  # never in place: u may be an array
    return acc


@dataclass(frozen=True)
class ParamStrategy:
    """How the simulator realizes time-varying coefficients inside the box.

    kinds:
      nominal            ai* every step
      fixed_vertex       ai* + signs[i]*eps_i every step
      iid_uniform        independent uniform draw in each box, seeded
      greedy_adversarial per coordinate, the box endpoint that maximizes
                         the magnitude of the candidate next output

    Instances hold no state: an iid_uniform draw is a pure function of the
    seed, the step and the coefficient (iid_params), so any replay is exact.
    """

    kind: str = "nominal"
    seed: int = 0
    signs: tuple[int, ...] | None = None

    KINDS = ("nominal", "fixed_vertex", "iid_uniform", "greedy_adversarial")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; pick one of {self.KINDS}")
        if self.kind == "fixed_vertex" and self.signs is None:
            raise ValueError("fixed_vertex strategy needs a sign pattern")


def iid_params(plant: UncertainPlant, seed, k: int) -> tuple:
    """iid_uniform coefficients of step k; coefficient i reads uniform01(~seed, k*n + i).

    The loops' one source of them: a uint64 array of step counters k draws a block of
    steps, each with its own bits.  ~seed keeps the stream apart from a channel with an
    equal seed and gives the same bits for an int and a uint64 seed array.
    """
    key, n = ~seed, plant.n
    return tuple([a + e * (2.0 * uniform01(key, k * n + i) - 1.0)
                  for i, (a, e) in enumerate(zip(plant.a_star, plant.eps))])


def realize_params(
    plant: UncertainPlant,
    strategy: ParamStrategy,
    history: Sequence | None = None,
    u=None,
    row=None,
    ops: Ops = FLOATS,
) -> tuple:
    """Coefficient vector of one step according to the strategy, for one trial or a batch.

    history and u, the plant step's inputs, are scalars or arrays with one slot
    per trial; ops is FLOATS or SLOTS to match.  iid_uniform returns row, the
    coefficients the loop drew for the step (iid_params).  greedy_adversarial
    sweeps the coordinates once from the nominal vector (so it never does worse
    than nominal), setting each to a + e if that gives a |next output| at least
    that of a - e (inf against inf too), else to a - e (a NaN).
    """
    kind = strategy.kind
    if kind == "nominal":
        return plant.a_star
    if kind == "fixed_vertex":
        if len(strategy.signs) != plant.n:  # ParamStrategy refuses a fixed_vertex without signs
            raise ValueError(f"sign pattern must have length {plant.n}")
        return tuple(a + s * e for a, s, e in zip(plant.a_star, strategy.signs, plant.eps))
    if kind == "iid_uniform":
        return row
    # greedy_adversarial
    if history is None or u is None or len(history) != plant.n:
        raise ValueError(f"greedy_adversarial strategy needs the last {plant.n} outputs")
    current = list(plant.a_star)
    for i, (a, e) in enumerate(zip(plant.a_star, plant.eps)):
        if e == 0.0:
            continue
        current[i] = a - e
        y_lo = abs(step_unchecked(history, u, current))
        current[i] = a + e
        y_hi = abs(step_unchecked(history, u, current))
        current[i] = ops.where(y_hi >= y_lo, a + e, a - e)
    return tuple(current)
