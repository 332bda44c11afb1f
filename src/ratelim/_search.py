"""Monotone threshold search shared by the minimum-level questions."""


def first_passing(passes, start, cap, split):
    """Smallest level in [start, cap] at which passes holds, or None.

    passes must stay true once true.  Doubles from start (clamped to cap)
    until a probe passes, then narrows that bracket: split(lo, hi) is the
    next level to probe, or None once hi is resolved (always if lo == hi).
    """
    if cap < start:
        raise ValueError(f"search cap {cap} is below the start level {start}")
    lo = hi = start
    while not passes(hi):
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while (mid := split(lo, hi)) is not None:
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def split_integers(lo: int, hi: int) -> int | None:
    """Integer levels: bisect until the bracket is adjacent."""
    return (lo + hi) // 2 if hi - lo > 1 else None
