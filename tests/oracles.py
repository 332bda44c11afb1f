"""Reference implementations that the runtime package replaced.

These are the upward scans and the bisection that answered the
minimum-level questions before the shared monotone search; parity tests
compare the runtime answers against them.
"""

import math

from ratelim.mjls import MinLevelResult, build_F, spectral_radius
from ratelim.plant import UncertainPlant
from ratelim.timeshare import TimeShareConfig, kappa_bar


def min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """Smallest integer level in [2, n_max] passing the test.

    Plain upward scan: assumes nothing about monotonicity, so the first
    hit is the minimum by construction.  On failure reports the largest
    spectral radius seen.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    worst = 0.0
    for n_levels in range(2, n_max + 1):
        rho = spectral_radius(build_F(plant, n_levels, p).lifted)
        worst = max(worst, rho)
        if rho < 1.0:
            return MinLevelResult(n_levels, rho)
    return MinLevelResult(None, worst)


def min_sufficient_level_real(
    plant: UncertainPlant, p: float, level_cap: float = 2.0**40, tol: float = 1e-9
) -> float:
    """Infimum real level N >= 2 with spectral radius below one.

    The radius is nonincreasing in N (every theta is), so bisection
    applies.  Returns 2.0 if the test already passes there and math.inf
    if it still fails at the cap.
    """

    def rho_at(n_levels: float) -> float:
        return spectral_radius(build_F(plant, n_levels, p).lifted)

    if rho_at(2.0) < 1.0:
        return 2.0
    hi = 4.0
    while rho_at(hi) >= 1.0:
        hi *= 2.0
        if hi > level_cap:
            return math.inf
    lo = hi / 2.0
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if rho_at(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def min_feasible_average_level(
    a_star: float, eps: float, p: float, m: int, cap: int = 1_000_000
) -> tuple[int, float] | None:
    """Smallest integer total level with E[kappa^2] < 1, and its m-th root.

    Upward scan over totals; kappa decreases with resolution so the first
    hit is minimal.  None if nothing passes up to the cap.
    """
    if cap < 2:
        raise ValueError(f"need cap >= 2, got {cap}")
    for total in range(2, cap + 1):
        avg = total ** (1.0 / m)
        cfg = TimeShareConfig(a_star=a_star, eps=eps, m=m, levels=avg, p=p)
        if kappa_bar(cfg) < 1.0:
            return total, avg
    return None
