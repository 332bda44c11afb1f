"""Second-moment stability test for the quantized loop with losses.

The scaling-parameter recursion is dominated by a linear system whose
coefficients switch with the window of the last n reception flags, a
Markov chain with 2^n states.  Mean-square stability of that switched
system is decided by the spectral radius of a single nonnegative matrix
built from the per-window companion matrices (Kronecker-squared) and the
window transition probabilities.

Window indexing: state index w in 1..2^n encodes the flags with the
newest flag as the most significant bit and the oldest as bit 0, i.e.
index 1 is all-lost and index 2^n is all-received.  A new flag shifts in
at the top, so each window has exactly two successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._search import first_passing, split_integers
from .plant import UncertainPlant

# The level searches' dense LU: F is (2^n * n^2) square, so n = 6 is already 2304 x 2304.
N_MAX_ORDER = 6


class PowerIterationError(RuntimeError):
    """Power iteration did not close its bracket on the spectral radius within its budget."""


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


@dataclass(frozen=True)
class MjlsModel:
    lifted: np.ndarray  # the stability test matrix


@dataclass(frozen=True)
class BlockRows:
    """Nonzero blocks of F: rows[c, j] is block row c 2^(n-1) + j at block columns 2j, 2j + 1."""

    rows: np.ndarray

    def __len__(self) -> int:
        return math.prod(self.rows.shape[:3])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.rows @ x.reshape(self.rows.shape[1], -1, 1)).ravel()


def block_rows(plant: UncertainPlant, n_levels: float, p: float) -> BlockRows:
    """The nonzero blocks of the lifted second-moment matrix, block row by block row.

    H_w carries the theta factors in its last row, ordered (theta_n, ...,
    theta_1); coefficient i reads the flag of time k-i+1, bit n-i of window
    w.  Block (v, w) is P[w, v] kron(H_w, H_w): w reaches v = w >> 1 with
    weight p (loss) and v = (w >> 1) | 2^(n-1) with 1 - p (reception), so
    block row c 2^(n-1) + j is zero but at w = 2j, 2j + 1.  An entry is at
    most max(theta, 1)^2, so finite once every theta^2 is.
    """
    n = plant.n
    if n > N_MAX_ORDER:
        raise ValueError(f"the spectral sufficiency test is capped at order {N_MAX_ORDER}, got {n}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"loss probability must be in [0, 1), got {p}")
    table = np.empty((n, 2))
    for i in range(n):
        for gamma in (0, 1):
            t = theta(plant.a_star[i], plant.eps[i], n_levels, gamma)
            if not math.isfinite(t * t):
                raise ValueError(
                    f"growth factor {t} of coefficient {i + 1} overflows when squared; "
                    "--a-star/--eps are out of floating-point range"
                )
            table[i, gamma] = t
    size, nn, windows = 1 << n, n * n, np.arange(1 << n)
    h = np.zeros((size, n, n))
    h[:, np.arange(n - 1), np.arange(1, n)] = 1.0
    # column j of the last row holds theta_{n-j}, whose flag is bit j
    h[:, n - 1, :] = table[np.arange(n - 1, -1, -1), (windows[:, None] >> np.arange(n)) & 1]
    h = h.reshape(size >> 1, 2, n, n)  # h[j, t] is H_{2j+t}
    pair = np.einsum("jtab,jtcd->jactbd", h, h).reshape(size >> 1, nn, 2 * nn)  # kron(H, H)
    return BlockRows(np.array([p, 1.0 - p])[:, None, None, None] * pair)


def build_F(plant: UncertainPlant, n_levels: float, p: float) -> MjlsModel:
    """The lifted matrix dense: block_rows' blocks in the zero (2^n n^2)^2 grid."""
    rows = block_rows(plant, n_levels, p).rows
    _, half, nn, _ = rows.shape
    grid = np.zeros((2, half, nn, half, 2 * nn))  # grid[c, j, :, j] is rows[c, j]
    grid[:, np.arange(half), :, np.arange(half), :] = rows.swapaxes(0, 1)
    return MjlsModel(grid.reshape(2 * half * nn, 2 * half * nn))


# Budget of matrix-vector products per solve, and the relative bracket width
# (and, before it, the growth-factor agreement) at which a solve ends.
MAX_MATVECS = 100_000
BRACKET_TOL = 1e-11


def spectral_radius(mat: np.ndarray | BlockRows, period: int = 1) -> float:
    """Upper bound on the spectral radius of a nonnegative matrix, dense or BlockRows.

    For nonnegative A and positive x, min (Ax)_i/x_i <= rho(A) <= max
    (Ax)_i/x_i (Collatz-Wielandt), so the upper end is certified up to the
    rounding of the products; the 0/0 quotients of components that stay
    zero (the loss rows when p = 0) are skipped.  Steps of A^q, q = lcm(2,
    period), map the eigenvalues on the spectral circle to rho^q when
    every cycle length of A is a multiple of period.  A solve ends when
    the bracket is BRACKET_TOL wide, or when the upper end has not fallen
    for three settled steps (the largest quotient can rest for a step on a
    row that copies another): the lower end stalls below rho when some
    rows reach only classes of smaller radius (pure delays with p > 0).
    After that second exit the answer is still an upper bound, but its
    distance from rho is not bounded.  The iterate is scaled by a power of
    two that keeps every entry at most 2^64 against it, so no product
    overflows and the scale divides out exactly.
    """
    if isinstance(mat, BlockRows):
        a, entries = mat, mat.rows
    else:
        a = entries = np.asarray(mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.isfinite(entries).all():
        raise ValueError("matrix entries must be finite")
    if (entries < 0.0).any():
        raise ValueError("matrix must be elementwise nonnegative")
    q = math.lcm(2, period)
    scale = math.ldexp(1.0, min(0, 64 - math.frexp(float(entries.max(initial=0.0)))[1]))
    y, growth, upper, stalls = np.ones(len(a)), 1.0, math.inf, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_MATVECS // q):
            x = y = y / growth
            for _ in range(q):
                y = a @ (scale * y)
            prev, growth = growth, float(y.max(initial=0.0))
            if growth == 0.0:
                return 0.0
            if abs(growth - prev) <= BRACKET_TOL * growth:
                lo, hi = float(np.fmin.reduce(y / x)), float(np.fmax.reduce(y / x))
                stalls = stalls + 1 if hi >= upper else 0
                upper = min(upper, hi)
                if upper < math.inf and (hi - lo <= BRACKET_TOL * hi or stalls == 3):
                    return upper ** (1.0 / q) / scale
        lo, hi = (float(r(y / x)) ** (1.0 / q) / scale for r in (np.fmin.reduce, np.fmax.reduce))
    raise PowerIterationError(
        f"power iteration did not close its bracket [{lo!r}, {hi!r}] on the spectral radius "
        f"in {MAX_MATVECS} products: other eigenvalues come too close to it in modulus"
    )


class SufficiencyResult(NamedTuple):
    rho: float
    sufficient: bool


def sufficient_mss(plant: UncertainPlant, n_levels: float, p: float) -> SufficiencyResult:
    """Spectral-radius test; an upper bound strictly below one certifies MSS.

    If every coefficient a_i with a nonzero box sits at a lag divisible by
    d, every cycle of the lifted matrix has a length divisible by d, and d
    eigenvalues rho * exp(2 pi i k / d) share the spectral circle.
    """
    lags = (i + 1 for i in range(plant.n) if plant.a_star[i] != 0.0 or plant.eps[i] != 0.0)
    rho = spectral_radius(block_rows(plant, n_levels, p), math.gcd(*lags))
    return SufficiencyResult(rho, rho < 1.0)


def decide_sufficient(plant: UncertainPlant, n_levels: float, p: float) -> bool:
    """Whether the lifted matrix F has spectral radius below one.

    For nonnegative F, rho < 1 exactly when I - F is a nonsingular
    M-matrix, and then x* = (I - F)^-1 1 = sum_k F^k 1 >= 1.  One solve of
    (I - F) x = 1 decides.  Yes: x > 0 and Fx <= (1 - delta) x give rho < 1
    (Collatz-Wielandt); delta = (dim + 2) 2^-53 covers the rounding of both
    products, none subnormal.  No: the residual 1 - (I - F) x, widened by a
    bound on its rounding, has R = max |r_i| < 1 and min x_i < 1 - R, but
    rho < 1 would give |x - x*| <= R x*, so x >= 1 - R.  Otherwise (rho
    within rounding of one) sufficient_mss answers.
    """
    lifted = build_F(plant, n_levels, p).lifted
    dim = lifted.shape[0]
    try:
        x = np.linalg.solve(np.eye(dim) - lifted, np.ones(dim))
    except np.linalg.LinAlgError:  # a zero pivot: an eigenvalue of F is within rounding of one
        return sufficient_mss(plant, n_levels, p).sufficient
    with np.errstate(over="ignore", invalid="ignore"):
        fx = lifted @ x
        below = fx <= (1.0 - (dim + 2) * 2.0**-53) * x
        if np.isfinite(x).all() and x.min() > 0.0 and below.all():
            return True
        rounding = (dim + 4) * 2.0**-52 * (1.0 + np.abs(x) + lifted @ np.abs(x))
        r = float((np.abs(1.0 - x + fx) + rounding).max())  # nan or inf unless x is finite
        if r < 1.0 and x.min() < 1.0 - r:
            return False
    return sufficient_mss(plant, n_levels, p).sufficient


class MinLevelResult(NamedTuple):
    level: int | None
    rho: float


# Search range and relative resolution of min_sufficient_level_real.
LEVEL_CAP = 2.0**40
LEVEL_TOL = 1e-9


def min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """Smallest integer level in [2, n_max] passing the test, and its radius.

    Every theta is nonincreasing in N, hence so is every entry of the
    nonnegative lifted matrix and (Perron-Frobenius) its spectral radius:
    once the test passes it passes for all larger N, so a monotone search
    of decide_sufficient finds the minimum.  Only the reported radius
    comes from power iteration: at the level found, or on failure at
    level 2, the largest radius of the search.
    """
    level = first_passing(
        lambda n_levels: decide_sufficient(plant, n_levels, p), 2, n_max, split_integers
    )
    return MinLevelResult(level, sufficient_mss(plant, level or 2, p).rho)


def min_sufficient_level_real(plant: UncertainPlant, p: float) -> float:
    """Infimum real level N >= 2 with spectral radius below one.

    The radius is nonincreasing in N (see min_sufficient_N); the search
    bisects decide_sufficient to a relative width of LEVEL_TOL.  Returns
    2.0 if the test passes there and math.inf if it still fails at
    LEVEL_CAP.
    """
    level = first_passing(
        lambda n_levels: decide_sufficient(plant, n_levels, p),
        2.0,
        LEVEL_CAP,
        lambda lo, hi: None if hi - lo <= LEVEL_TOL * max(1.0, lo) else 0.5 * (lo + hi),
    )
    return math.inf if level is None else level
