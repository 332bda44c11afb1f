"""Reference implementations that the runtime package replaced.

These are the upward scans and the bisection that answered the
minimum-level questions before the shared monotone search, the product
form of the lifted matrix, and the stacked per-trial reduction of a Monte
Carlo experiment; parity tests compare the runtime answers against them.
"""

import math

import numpy as np

from ratelim.codec_loop import CONVERGED, DIVERGED, SimTrace
from ratelim.mjls import (
    N_MAX_ORDER,
    MinLevelResult,
    build_F,
    build_transition,
    spectral_radius,
    theta,
)
from ratelim.montecarlo import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    DecayReport,
    _fit_slope,
    _run_trial,
)
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


def lifted_matrix(plant: UncertainPlant, n_levels: float, p: float) -> np.ndarray:
    """Lifted second-moment matrix as a dense product.

    (P^T kron I) times the block diagonal of the Kronecker squares of the
    per-window companion matrices.
    """
    n = plant.n
    if n > N_MAX_ORDER:
        raise ValueError(f"dense construction capped at order {N_MAX_ORDER}, got {n}")
    if n_levels < 2.0:
        raise ValueError(f"need N >= 2, got {n_levels}")
    table = np.empty((n, 2))
    for i in range(n):
        table[i, 0] = theta(plant.a_star[i], plant.eps[i], n_levels, 0)
        table[i, 1] = theta(plant.a_star[i], plant.eps[i], n_levels, 1)
    size = 1 << n
    blocks = []
    for w in range(size):
        h = np.zeros((n, n))
        for r in range(n - 1):
            h[r, r + 1] = 1.0
        # column j of the last row holds theta_{n-j}, whose flag is bit j
        for j in range(n):
            flag = (w >> j) & 1
            h[n - 1, j] = table[n - 1 - j, flag]
        blocks.append(np.kron(h, h))
    f2 = np.zeros((size * n * n, size * n * n))
    for w, b in enumerate(blocks):
        s = w * n * n
        f2[s : s + n * n, s : s + n * n] = b
    trans = build_transition(n, p)
    f1 = np.kron(trans.T, np.eye(n * n))
    return f1 @ f2


def _trial_arrays(trace: SimTrace, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    got = len(trace)
    sq_y = np.zeros(steps)
    sq_sigma = np.zeros(steps)
    weight = np.zeros(steps)
    y = np.asarray(trace.y[:got])
    s = np.asarray(trace.sigma[:got])
    sq_y[:got] = y * y
    sq_sigma[:got] = s * s
    if trace.status == DIVERGED:
        weight[:got] = 1.0  # nothing meaningful to contribute past divergence
    else:
        weight[:] = 1.0  # converged trials contribute their (zero) tail
    return sq_y, sq_sigma, weight, trace.status


def run_experiment(target, quantizer, channel, exp) -> DecayReport:
    """Monte Carlo experiment reduced over stacked per-trial arrays.

    Every trial is turned into squared-output, squared-sigma and weight
    rows first; the means are weighted column sums of the stacked rows.
    """
    if isinstance(target, UncertainPlant) and quantizer is None:
        raise ValueError("closed-loop experiments need a quantizer spec")
    results = [
        _trial_arrays(_run_trial(target, quantizer, channel, exp, t), exp.steps)
        for t in range(exp.trials)
    ]
    sq_y = np.stack([r[0] for r in results])
    sq_sigma = np.stack([r[1] for r in results])
    weight = np.stack([r[2] for r in results])
    statuses = [r[3] for r in results]
    counts = weight.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_sq_y = np.where(counts > 0, (sq_y * weight).sum(axis=0) / counts, np.nan)
        mean_sq_sigma = np.where(
            counts > 0, (sq_sigma * weight).sum(axis=0) / counts, np.nan
        )
    slope = _fit_slope(mean_sq_sigma)
    diverged = sum(1 for s in statuses if s == DIVERGED)
    converged = sum(1 for s in statuses if s == CONVERGED)
    if diverged > 0:
        verdict = UNSTABLE
    elif slope < -exp.tol_slope:
        verdict = STABLE
    elif slope > exp.tol_slope:
        verdict = UNSTABLE
    else:
        verdict = INCONCLUSIVE
    return DecayReport(
        mean_sq_y=mean_sq_y,
        mean_sq_sigma=mean_sq_sigma,
        slope=slope,
        verdict=verdict,
        diverged_trials=diverged,
        converged_trials=converged,
    )
