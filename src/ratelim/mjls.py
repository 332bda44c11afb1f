"""Second-moment stability test for the quantized loop with losses.

The scaling-parameter recursion is dominated by a linear system whose
coefficients switch with the window of the last n reception flags, a
Markov chain with 2^n states.  Mean-square stability of that switched
system is decided by the spectral radius of a single nonnegative matrix
built from the per-window companion matrices (Kronecker-squared) and the
window transition matrix.

Window indexing: state index w in 1..2^n encodes the flags with the
newest flag as the most significant bit and the oldest as bit 0, i.e.
index 1 is all-lost and index 2^n is all-received.  A new flag shifts in
at the top, which gives the transition matrix its two-band structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._search import first_passing, split_integers
from .plant import UncertainPlant

# Dense storage: F is (2^n * n^2) square, so n = 6 is already 2304 x 2304.
N_MAX_ORDER = 6


class PowerIterationError(RuntimeError):
    """Spectral-radius iteration failed to converge within its budget."""


def theta(a_star_i: float, eps_i: float, n_levels: float, gamma: int) -> float:
    """Worst-case growth factor of one product-hull length.

    On loss the whole range is scaled by the full box magnitude; on
    reception the cell is N times shorter, but a box containing zero can
    keep a floor of eps_i regardless of the rate.
    """
    if n_levels < 2.0:
        raise ValueError(f"need N >= 2, got {n_levels}")
    if gamma == 0:
        return abs(a_star_i) + eps_i
    if eps_i < abs(a_star_i):  # box excludes zero
        return (abs(a_star_i) + eps_i * (n_levels - 1.0)) / n_levels
    return max((abs(a_star_i) + eps_i) / n_levels, eps_i)


def window_bits(index0: int, n: int) -> tuple[int, ...]:
    """Flags (newest first) of 0-based window index."""
    return tuple((index0 >> (n - 1 - j)) & 1 for j in range(n))


def build_transition(n: int, p: float) -> np.ndarray:
    """Transition matrix over loss windows: shift register driven by one flag."""
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"loss probability must be in [0, 1), got {p}")
    size = 1 << n
    half = 1 << (n - 1)
    mat = np.zeros((size, size))
    for i in range(size):
        drop = i >> 1
        mat[i, drop] += p
        mat[i, drop | half] += 1.0 - p
    return mat


@dataclass(frozen=True)
class MjlsModel:
    n: int
    levels: float
    p: float
    companions: tuple[np.ndarray, ...]  # one per window, index order
    lifted: np.ndarray  # the stability test matrix


def build_F(plant: UncertainPlant, n_levels: float, p: float) -> MjlsModel:
    """Assemble the lifted second-moment matrix for spectral-radius testing.

    Each window's companion matrix H_w carries the theta factors in its
    last row, ordered (theta_n, ..., theta_1); coefficient i reads the flag
    of time k-i+1, which is bit n-i of the window.  Block (v, w) of the
    lifted matrix is P[w, v] * kron(H_w, H_w), written directly: each
    source window w fills at most two blocks, v = w >> 1 (loss) and
    v = (w >> 1) | 2^(n-1) (reception); every other block is zero.
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
    nn = n * n
    trans = build_transition(n, p)
    lifted = np.zeros((size * nn, size * nn))
    companions = []
    for w in range(size):
        h = np.zeros((n, n))
        for r in range(n - 1):
            h[r, r + 1] = 1.0
        # column j of the last row holds theta_{n-j}, whose flag is bit j
        for j in range(n):
            flag = (w >> j) & 1
            h[n - 1, j] = table[n - 1 - j, flag]
        companions.append(h)
        # an overflowed block is left inf (or nan where P is zero) for
        # spectral_radius to reject
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.kron(h, h)
            for v in (w >> 1, (w >> 1) | (size >> 1)):
                lifted[v * nn : (v + 1) * nn, w * nn : (w + 1) * nn] = trans[w, v] * block
    return MjlsModel(n=n, levels=n_levels, p=p, companions=tuple(companions), lifted=lifted)


def _power_iteration(mat: np.ndarray, tol: float, max_iter: int) -> float | None:
    """L1-normalized power iteration on a nonnegative matrix.

    The running estimate is the geometric mean of two consecutive growth
    factors, which also settles when the dominant class rotates with
    period two.  Returns None if the estimate does not stabilize.
    """
    size = mat.shape[0]
    x = np.full(size, 1.0 / size)
    prev_r: float | None = None
    prev_est: float | None = None
    agree = 0
    for _ in range(max_iter):
        y = mat @ x
        r = float(y.sum())
        if r == 0.0:
            return 0.0
        x = y / r
        if prev_r is not None:
            est = math.sqrt(r * prev_r)
            if prev_est is not None and abs(est - prev_est) <= tol * max(est, 1.0):
                agree += 1
                if agree >= 3:
                    return est
            else:
                agree = 0
            prev_est = est
        prev_r = r
    return None


def spectral_radius(mat: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000) -> float:
    """Dominant eigenvalue of an elementwise-nonnegative matrix.

    Nonnegativity guarantees the dominant eigenvalue is real and equals
    the growth rate seen by power iteration from a positive start.  If the
    estimate fails to settle (rotating dominant class), retry on the
    diagonally shifted matrix and subtract the shift.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if (a < 0.0).any():
        raise ValueError("matrix must be elementwise nonnegative")
    rho = _power_iteration(a, tol, max_iter)
    if rho is not None:
        return rho
    delta = 1e-8
    shifted = _power_iteration(a + delta * np.eye(a.shape[0]), tol, max_iter)
    if shifted is None:
        raise PowerIterationError(
            f"power iteration did not converge within {max_iter} iterations, "
            "even with a diagonal shift"
        )
    return shifted - delta


class SufficiencyResult(NamedTuple):
    rho: float
    sufficient: bool


def sufficient_mss(plant: UncertainPlant, n_levels: float, p: float) -> SufficiencyResult:
    """Spectral-radius test; strictly below one certifies MSS."""
    rho = spectral_radius(build_F(plant, n_levels, p).lifted)
    return SufficiencyResult(rho, rho < 1.0)


class MinLevelResult(NamedTuple):
    level: int | None
    rho: float


# Search range and relative resolution of min_sufficient_level_real.
LEVEL_CAP = 2.0**40
LEVEL_TOL = 1e-9


def min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """Smallest integer level in [2, n_max] passing the test.

    Every theta is nonincreasing in N, hence so is every entry of the
    nonnegative lifted matrix and (Perron-Frobenius) its spectral radius:
    once the test passes it passes for all larger N, so a monotone search
    finds the minimum.  On failure reports the largest radius probed.
    """
    results = {}

    def passes(n_levels: int) -> bool:
        results[n_levels] = sufficient_mss(plant, n_levels, p)
        return results[n_levels].sufficient

    level = first_passing(passes, 2, n_max, split_integers)
    rho = max(r.rho for r in results.values()) if level is None else results[level].rho
    return MinLevelResult(level, rho)


def min_sufficient_level_real(plant: UncertainPlant, p: float) -> float:
    """Infimum real level N >= 2 with spectral radius below one.

    The radius is nonincreasing in N (see min_sufficient_N); the search
    bisects to a relative width of LEVEL_TOL.  Returns 2.0 if the test
    passes there and math.inf if it still fails at LEVEL_CAP.
    """
    level = first_passing(
        lambda n_levels: sufficient_mss(plant, n_levels, p).sufficient,
        2.0,
        LEVEL_CAP,
        lambda lo, hi: None if hi - lo <= LEVEL_TOL * max(1.0, lo) else 0.5 * (lo + hi),
    )
    return math.inf if level is None else level
