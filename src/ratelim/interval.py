"""Closed-interval arithmetic for estimation-set bookkeeping.

Intervals are stored closed [lo, hi].  Decoder cells are half-open at the
top in principle, but Lebesgue measure and every formula built on it are
insensitive to boundary points.  All operations are exact endpoint
arithmetic in double precision; this is real analysis, not validated
numerics, so there is no outward rounding.
"""

from __future__ import annotations

from typing import NamedTuple


class Interval(NamedTuple):
    lo: float
    hi: float


def measure(iv: Interval) -> float:
    """Length hi - lo (the Lebesgue measure of the interval)."""
    return iv.hi - iv.lo


def midpoint(iv: Interval) -> float:
    return (iv.lo + iv.hi) / 2.0


def scale_product(a: Interval, y: Interval) -> Interval:
    """Exact hull of {x * v : x in a, v in y}.

    The product of two intervals is attained at endpoint pairs, so the
    hull is the min/max over the four endpoint products.
    """
    p1 = a.lo * y.lo
    p2 = a.lo * y.hi
    p3 = a.hi * y.lo
    p4 = a.hi * y.hi
    return Interval(min(p1, p2, p3, p4), max(p1, p2, p3, p4))
