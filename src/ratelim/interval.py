"""Closed-interval arithmetic for estimation-set bookkeeping.

Intervals are stored closed [lo, hi].  Decoder cells are half-open at the
top in principle, but Lebesgue measure and every formula built on it are
insensitive to boundary points.  All operations are exact endpoint
arithmetic in double precision; this is real analysis, not validated
numerics, so there is no outward rounding.

An endpoint is a float (one trial) or a numpy array (one slot per trial
of a lockstep batch).  Functions that choose between values take an `Ops`
tuple from the loop that calls them, FLOATS or SLOTS.  Both choose the
same value, except that SLOTS propagates NaN and may give a zero the
other sign.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class Interval(NamedTuple):
    lo: float
    hi: float


class Ops(NamedTuple):
    """The elementwise operations a step function applies: FLOATS to one trial's
    floats, SLOTS to numpy arrays of trial slots."""

    where: Callable
    minimum: Callable
    maximum: Callable
    floor: Callable
    all: Callable


# Inline conditionals, which keep the first argument on a tie as min() and max()
# do: the builtins cost several times more per call.  logical_and.reduce takes
# half np.all's time.
FLOATS = Ops(lambda c, a, b: a if c else b, lambda a, b: b if b < a else a,
             lambda a, b: b if b > a else a, math.floor, bool)
SLOTS = Ops(np.where, np.minimum, np.maximum, np.floor, np.logical_and.reduce)


def midpoint(iv: Interval) -> float:
    return (iv.lo + iv.hi) / 2.0


def scale_product(a: Interval, y: Interval, ops: Ops = FLOATS) -> Interval:
    """Exact hull of {x * v : x in a, v in y}.

    The product of two intervals is attained at endpoint pairs, so the
    hull is the min/max over the four endpoint products, taken in order.
    """
    p1 = a.lo * y.lo
    p2 = a.lo * y.hi
    p3 = a.hi * y.lo
    p4 = a.hi * y.hi
    minimum, maximum = ops.minimum, ops.maximum
    return Interval(minimum(minimum(minimum(p1, p2), p3), p4),
                    maximum(maximum(maximum(p1, p2), p3), p4))
