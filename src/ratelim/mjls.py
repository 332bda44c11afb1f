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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._search import first_passing, split_integers
from .channel import ChannelConfig
from .plant import UncertainPlant

# Bounds the worst case of a solve, MAX_MATVECS products on block rows: 6 s at n = 6
# (60 us a product on a 2-core Xeon), 30 s at n = 7 and 140 s at n = 8.  A search
# probe spends at most PROBE_MATVECS of them and a twentieth as many in long
# double, each 20 times slower at n = 6: 1.3 s.
N_MAX_ORDER = 6


class PowerIterationError(RuntimeError):
    """Power iteration did not close its bracket [lo, hi] on the spectral radius within its budget."""

    def __init__(self, lo: float, hi: float):
        super().__init__(
            f"power iteration did not close its bracket [{lo!r}, {hi!r}] on the spectral radius "
            f"in {MAX_MATVECS} products: other eigenvalues come too close to it in modulus"
        )
        self.lo, self.hi = lo, hi


def theta(a_star_i: float, eps_i: float, n_levels: float, gamma: int) -> float:
    """Worst-case growth factor of one product-hull length.

    On loss the whole range is scaled by the full box magnitude; on
    reception the cell is N times shorter, but a box containing zero can
    keep a floor of eps_i regardless of the rate.
    """
    if not 2.0 <= n_levels < math.inf:  # the one check of a level the spectral test reads
        raise ValueError(f"--N must be a finite level >= 2, got {n_levels}")
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


@functools.cache
def _factor_index(n: int) -> np.ndarray:
    """Block-row entry (c, j, ac, tbd) of order n is P_c H_{2j+t}[a, b] H_{2j+t}[c, d]: the
    pair (x, y) of H's factors (0, 1, then theta_i at flag gamma as factor 2i + gamma) that
    it multiplies, held as x (2n + 2) + y in the smallest unsigned type."""
    size, width = 1 << n, 2 * n + 2
    h = np.zeros((size, n, n), dtype=np.intp)
    h[:, np.arange(n - 1), np.arange(1, n)] = 1
    # column j of the last row holds theta_{n-j}, whose flag is bit j
    h[:, n - 1, :] = 2 * np.arange(n, 0, -1) + ((np.arange(size)[:, None] >> np.arange(n)) & 1)
    h = h.reshape(size >> 1, 2, n, n).swapaxes(1, 2)  # h[j, a, t] is row a of H_{2j+t}
    pair = width * h[:, :, None, :, :, None] + h[:, None, :, :, None, :]  # [j, a, c, t, b, d]
    return pair.reshape(size >> 1, n * n, 2 * n * n).astype(np.min_scalar_type(width**2 - 1))


def block_rows(plant: UncertainPlant, n_levels: float, p: float) -> BlockRows:
    """The nonzero blocks of the lifted second-moment matrix, block row by block row.

    H_w carries the theta factors in its last row, ordered (theta_n, ...,
    theta_1); coefficient i reads the flag of time k-i+1, bit n-i of window
    w.  Block (v, w) is P[w, v] kron(H_w, H_w): w reaches v = w >> 1 with
    weight p (loss) and v = (w >> 1) | 2^(n-1) with 1 - p (reception), so
    block row c 2^(n-1) + j is zero but at w = 2j, 2j + 1.  An entry is at
    most max(theta, 1)^2, so finite once every theta^2 is, and nonnegative:
    the weights p, 1 - p and the factors 0, 1 and theta are.
    """
    n = plant.n
    if n > N_MAX_ORDER:
        raise ValueError(f"the spectral sufficiency test is capped at order {N_MAX_ORDER}, got {n}")
    ChannelConfig(p)  # checks p
    factors = [0.0, 1.0]  # _factor_index's order
    for i in range(n):
        for gamma in (0, 1):
            t = theta(plant.a_star[i], plant.eps[i], n_levels, gamma)
            if not math.isfinite(t * t):
                raise ValueError(
                    f"growth factor {t} of coefficient {i + 1} overflows when squared; "
                    "--a-star/--eps are out of floating-point range"
                )
            factors.append(t)
    weights = np.multiply.outer(np.array([p, 1.0 - p]), np.multiply.outer(factors, factors))
    return BlockRows(weights.reshape(2, -1).take(_factor_index(n), axis=1))  # P_c (x y)


def build_F(plant: UncertainPlant, n_levels: float, p: float) -> MjlsModel:
    """The lifted matrix dense: block_rows' blocks in the zero (2^n n^2)^2 grid."""
    rows = block_rows(plant, n_levels, p).rows
    _, half, nn, _ = rows.shape
    grid = np.zeros((2, half, nn, half, 2 * nn))  # grid[c, j, :, j] is rows[c, j]
    grid[:, np.arange(half), :, np.arange(half), :] = rows.swapaxes(0, 1)
    return MjlsModel(grid.reshape(2 * half * nn, 2 * half * nn))


# Budget of matrix-vector products per solve and per level-search probe (a probe
# near rho = 1 on a slowly mixing operator spends any budget undecided), and the
# relative bracket width (and, before it, the growth agreement) that ends a solve.
MAX_MATVECS = 100_000
PROBE_MATVECS = 10_000
BRACKET_TOL = 1e-11


class Bracket(NamedTuple):
    """Bounds lo <= rho <= hi from power_bracket's last quotients, its stop rule and last iterate."""
    lo: float
    hi: float
    stop: str  # "closed", "stalled" or "budget"; a probe's "below" (rho < 1) or "above" (rho >= 1)
    x: np.ndarray


def power_bracket(a, period=1, start=None, probe=False, budget=MAX_MATVECS) -> Bracket:
    """Power iteration on a finite nonnegative matrix (a probe: BlockRows), from start or ones.

    min (Ax)_i/x_i <= rho(A) <= max (Ax)_i/x_i (Collatz-Wielandt), skipping
    the 0/0 of components that stay zero (their rows of A^k are zero: they
    reach no cycle).  Steps of A^q, q = lcm(2, period), map the eigenvalues
    on the spectral circle to rho^q when period divides every cycle length.
    The iterate is scaled by a power of two s that keeps every entry at most
    2^64 against it, so no product overflows and s^q divides out exactly.
    A solve ends "closed" once a settled step's bracket (growth agreeing to
    BRACKET_TOL) is BRACKET_TOL wide, or "stalled" once its upper end has not
    fallen for three settled steps (rows reaching only classes of smaller
    radius, as in pure delays with p > 0, hold the lower end below rho).  A
    probe ends "below" once hi < (1 - delta) s^q, "above" once lo >= (1 +
    delta) s^q: q products of m-term rows on nonnegative data and a quotient
    round by at most delta = (q m + 2) u, u the unit of a's dtype, none
    subnormal.  Stalled in doubles (u = 2^-53) it runs on in np.longdouble
    (u = 2^-64 on x86) for budget // 20 products; stalled there, or out of
    budget, it is undecided.
    """
    entries = a.rows if isinstance(a, BlockRows) else a
    q, dtype = math.lcm(2, period), entries.dtype
    shift = min(0, 64 - math.frexp(float(entries.max(initial=0.0)))[1])
    scale = math.ldexp(1.0, shift)
    delta = (q * entries.shape[-1] + 2) * np.finfo(dtype).eps / 2
    # a probe's thresholds, exact unless scaled out of the normal range ((q m + 2) is even)
    below, above = np.ldexp(1 - delta, q * shift), np.ldexp(1 + delta, q * shift)
    if np.ldexp(below, -q * shift) != 1 - delta:
        below, above = 0.0, math.inf

    def bracket(lo, hi, stop):
        return Bracket(float(lo) ** (1.0 / q) / scale, float(hi) ** (1.0 / q) / scale, stop, x)

    y = np.ones(len(a), dtype) if start is None else start
    growth, upper, stalls = 1.0, math.inf, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(budget // q):
            x = y = y / growth
            for _ in range(q):
                y = a @ (scale * y) if shift else a @ y
            prev, growth = growth, float(y.max(initial=0.0))
            if growth == 0.0:
                return bracket(0.0, 0.0, "below" if probe else "closed")
            settled = abs(growth - prev) <= BRACKET_TOL * growth
            if probe or settled:
                ratio = y / x
                lo, hi = np.fmin.reduce(ratio), np.fmax.reduce(ratio)
                if probe and (hi < below or lo >= above):
                    return bracket(lo, hi, "below" if hi < below else "above")
            if settled:
                stalls = stalls + 1 if hi >= upper else 0
                upper = min(upper, hi)
                if upper < math.inf and (stalls == 3 or (not probe and hi - lo <= BRACKET_TOL * hi)):
                    if probe and dtype == np.float64:  # stalled in doubles: run on in long double
                        wide = BlockRows(entries.astype(np.longdouble))
                        wide = power_bracket(wide, period, x.astype(np.longdouble), True, budget // 20)
                        return wide._replace(x=wide.x.astype(float))
                    return bracket(lo, upper, "stalled" if stalls == 3 else "closed")
        ratio = y / x
        lo, hi = np.fmin.reduce(ratio), min(upper, np.fmax.reduce(ratio))
    return bracket(lo, hi, "budget")


def spectral_radius(mat, period: int = 1) -> float:
    """Upper end of power_bracket's solve on a nonnegative matrix: BlockRows, whose entries
    block_rows makes finite and nonnegative, or a dense one, checked here."""
    if not isinstance(mat, BlockRows):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"need a square matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if (mat < 0.0).any():
            raise ValueError("matrix must be elementwise nonnegative")
    bracket = power_bracket(mat, period)
    if bracket.stop == "budget":
        raise PowerIterationError(bracket.lo, bracket.hi)
    return bracket.hi


class SufficiencyResult(NamedTuple):
    rho: float
    sufficient: bool


def lag_period(plant: UncertainPlant) -> int:
    """The gcd d of the lags whose box is nonzero: every cycle of the lifted
    matrix has a length divisible by d, so d eigenvalues share its spectral circle."""
    return math.gcd(*(i + 1 for i in range(plant.n) if plant.a_star[i] != 0.0 or plant.eps[i] != 0.0))


def sufficient_mss(plant: UncertainPlant, n_levels: float, p: float) -> SufficiencyResult:
    """Spectral-radius test; an upper bound strictly below one certifies MSS, even
    from a solve that spent its budget (which raises PowerIterationError otherwise)."""
    try:
        rho = spectral_radius(block_rows(plant, n_levels, p), lag_period(plant))
    except PowerIterationError as exc:
        if not exc.hi < 1.0:
            raise
        rho = exc.hi
    return SufficiencyResult(rho, rho < 1.0)


class MinLevelResult(NamedTuple):
    level: int | None
    rho: float


# Search range and relative resolution of min_sufficient_level_real.
LEVEL_CAP = 2.0**40
LEVEL_TOL = 1e-9


def _first_certified(plant: UncertainPlant, p: float, start, cap, split):
    """first_passing over levels by power_bracket probes, each from the last one's
    iterate; an undecided probe fails, so every level found is certified."""
    period, x = lag_period(plant), None

    def passes(n_levels):
        nonlocal x
        bracket = power_bracket(block_rows(plant, n_levels, p), period, x, True, PROBE_MATVECS)
        x = bracket.x
        return bracket.stop == "below"

    return first_passing(passes, start, cap, split)


def min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """Smallest integer level in [2, n_max] passing the test, and its radius.

    Every theta is nonincreasing in N, hence so is every entry of the
    nonnegative lifted matrix and (Perron-Frobenius) its spectral radius:
    once the test passes it passes for all larger N, so a monotone search
    of certified probes finds the minimum.  The reported radius is
    sufficient_mss's: at the level found, or on failure at level 2, the
    largest radius of the search.
    """
    level = _first_certified(plant, p, 2, n_max, split_integers)
    return MinLevelResult(level, sufficient_mss(plant, level or 2, p).rho)


def min_sufficient_level_real(plant: UncertainPlant, p: float) -> float:
    """Infimum real level N >= 2 with spectral radius below one.

    The radius is nonincreasing in N (see min_sufficient_N); the search
    bisects certified probes to a relative width of LEVEL_TOL.  Returns
    2.0 if the test passes there and math.inf if it still fails at
    LEVEL_CAP.
    """
    def split(lo, hi):
        return None if hi - lo <= LEVEL_TOL * max(1.0, lo) else 0.5 * (lo + hi)

    level = _first_certified(plant, p, 2.0, LEVEL_CAP, split)
    return math.inf if level is None else level
