"""Reference implementations that only the tests use.

These are the upward scans and the bisection that answered the
minimum-level questions before the shared monotone search, the LU solve
that decided the searches' probes before the power-iteration bracket
did (with the two searches as they stood on it), the one-term
time-share growth factor `kappa` that `kappa_bar` sums, the product
form of the lifted matrix, the geometric-mean power iteration that
estimated the spectral radius before the Collatz-Wielandt bracket bounded
it, the stacked per-trial reduction of a Monte Carlo experiment, the
CSV writer that wrote a table one row dict and one write at a time, and the
closed loop that kept its encoder/decoder state in a `CodecState` object,
stepped by the `realize_params` that took the candidate next output as a
callback, by the one-trial codec steps (`quantize`, `decode_cell`,
`predict`, `advance_scaling`, `scale_product`) and by the one-trial
reception flag (`draw`); the step functions `predict_by_hulls` and
`advance_scaling_by_measure` take floats or trial slots as the runtime's do,
but form each coefficient's hull as an `Interval` and read the prediction
through `measure` (an interval's length, which no runtime code reads) and
`midpoint`; parity tests compare the runtime answers against
them, and the invariant checks replay the decoder with that object.
`timeshare_trial` runs one time-share trial with scalar floats on those
codec steps and that flag: every time-share batch row is replayed by it
bit for bit (`replay_timeshare`), and every breach the batch raises is
checked against it.  The stacked reduction (`run_experiment`) runs each
closed-loop trial on the CodecState loop and each time-share trial on
`timeshare_trial`, never on the runtime's loops.
Below them sit independent routes to quantities the runtime computes
another way: the case-split product measure, the worst-cell enumeration
in exact rationals, the eta growth factors and the branch loss limits,
the window transition matrix, the box-checked plant step and the sampled
instability check.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ratelim.channel import ChannelConfig, uniform01
from ratelim.codec_loop import (
    COMPLETED,
    CONVERGED,
    DIVERGED,
    SATURATION_TOL,
    SIGMA_MIN,
    QuantizerSpec,
    SaturationError,
    SimTrace,
    control,
    end_status,
)
from ratelim._search import first_passing, split_integers
from ratelim.interval import FLOATS, Interval, Ops, midpoint
from ratelim.interval import scale_product as slot_scale_product
from ratelim.mjls import (
    LEVEL_CAP,
    LEVEL_TOL,
    N_MAX_ORDER,
    MinLevelResult,
    PowerIterationError,
    SufficiencyResult,
    build_F,
    spectral_radius,
    sufficient_mss,
    theta,
)
from ratelim.montecarlo import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    DecayReport,
    _fit_slope,
    _trial_setup,
)
from ratelim.plant import ParamStrategy, UncertainPlant, iid_params, step_unchecked
from ratelim.timeshare import TimeShareConfig, deltas, kappa_bar, power_hull


def min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """Smallest integer level in [2, n_max] passing the test.

    Plain upward scan: assumes nothing about monotonicity, so the first
    hit is the minimum by construction.  Each level is decided by the
    dense solve; the radius reported at the level found is the runtime
    sufficient_mss's, whose distance from the dense solve
    test_compact_solve_matches_dense_solve bounds.  On failure reports
    the largest spectral radius seen.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    worst = 0.0
    for n_levels in range(2, n_max + 1):
        rho = spectral_radius(build_F(plant, n_levels, p).lifted)
        worst = max(worst, rho)
        if rho < 1.0:
            return MinLevelResult(n_levels, sufficient_mss(plant, n_levels, p).rho)
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


# The level searches' probe decision before it ran on the power-iteration
# bracket, copied verbatim: one LU solve of (I - F) x = 1 on the dense lifted
# matrix.  lu_min_sufficient_N and lu_min_sufficient_level_real are the two
# searches as they stood with it, so parity tests run the same monotone
# search with the old decision.
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


def lu_min_sufficient_N(plant: UncertainPlant, p: float, n_max: int = 4096) -> MinLevelResult:
    """min_sufficient_N with decide_sufficient deciding each probe."""
    level = first_passing(
        lambda n_levels: decide_sufficient(plant, n_levels, p), 2, n_max, split_integers
    )
    return MinLevelResult(level, sufficient_mss(plant, level or 2, p).rho)


def lu_min_sufficient_level_real(plant: UncertainPlant, p: float) -> float:
    """min_sufficient_level_real with decide_sufficient deciding each probe."""
    level = first_passing(
        lambda n_levels: decide_sufficient(plant, n_levels, p),
        2.0,
        LEVEL_CAP,
        lambda lo, hi: None if hi - lo <= LEVEL_TOL * max(1.0, lo) else 0.5 * (lo + hi),
    )
    return math.inf if level is None else level


def min_feasible_average_level(
    a_star: float, eps: float, p: float, m: int, cap: int = 1_000_000
) -> tuple[int, float] | None:
    """Smallest integer total level with E[kappa^2] < 1, and its m-th root.

    Upward scan over totals; kappa decreases with resolution so the first
    hit is minimal.  None if nothing passes up to the cap.
    """
    if cap < 2:
        raise ValueError(f"need cap >= 2, got {cap}")
    cfg = TimeShareConfig(a_star=a_star, eps=eps, m=m)
    for total in range(2, cap + 1):
        avg = total ** (1.0 / m)
        if kappa_bar(cfg, avg, p) < 1.0:
            return total, avg
    return None


def kappa(a_star: float, eps: float, m: int, m_level: float) -> float:
    """Worst-case per-cycle growth factor at realized total resolution M (>= 1)."""
    if m_level < 1.0:
        raise ValueError(f"realized level must be >= 1, got {m_level}")
    dp, dm = deltas(a_star, eps, m)
    return (abs(a_star) ** m + max(m_level / 2.0, 1.0) * dp
            + max(m_level / 2.0 - 1.0, 0.0) * dm) / m_level


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


# The spectral solver that preceded the Collatz-Wielandt bracket, copied
# verbatim except that the two public names gain a power_ prefix, so that
# spectral_radius above keeps naming the runtime solver.
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000


def _power_iteration(mat: np.ndarray) -> float | None:
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
    for _ in range(POWER_MAX_ITER):
        y = mat @ x
        r = float(y.sum())
        if r == 0.0:
            return 0.0
        x = y / r
        if prev_r is not None:
            est = math.sqrt(r * prev_r)
            if prev_est is not None and abs(est - prev_est) <= POWER_TOL * max(est, 1.0):
                agree += 1
                if agree >= 3:
                    return est
            else:
                agree = 0
            prev_est = est
        prev_r = r
    return None


def power_spectral_radius(mat: np.ndarray) -> float:
    """Dominant eigenvalue of an elementwise-nonnegative matrix.

    Nonnegativity guarantees the dominant eigenvalue is real and equals
    the growth rate seen by power iteration from a positive start.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if (a < 0.0).any():
        raise ValueError("matrix must be elementwise nonnegative")
    rho = _power_iteration(a)
    if rho is None:
        raise PowerIterationError(
            f"power iteration did not settle within {POWER_MAX_ITER} iterations; "
            "the matrix has distinct eigenvalues too close to its spectral radius in modulus"
        )
    return rho


def power_sufficient_mss(plant: UncertainPlant, n_levels: float, p: float) -> SufficiencyResult:
    """Spectral-radius test; strictly below one certifies MSS.

    If every coefficient a_i with a nonzero box sits at a lag i divisible
    by d, every cycle of the lifted matrix L has a length divisible by d
    and d eigenvalues rho * exp(2 pi i k / d) share the spectral circle,
    so power iteration on L never settles for d >= 3.  The radius is then
    read off L^d, whose dominant eigenvalue rho^d is positive and real.
    """
    lifted = build_F(plant, n_levels, p).lifted
    lags = (i + 1 for i in range(plant.n) if plant.a_star[i] != 0.0 or plant.eps[i] != 0.0)
    d = math.gcd(*lags)
    if d >= 3:
        rho = power_spectral_radius(np.linalg.matrix_power(lifted, d)) ** (1.0 / d)
    else:
        rho = power_spectral_radius(lifted)
    return SufficiencyResult(rho, rho < 1.0)


def _run_trial(target, quantizer, channel, exp, trial: int) -> SimTrace:
    """One seeded trial of an experiment, run on its own: a closed-loop trial by the
    CodecState loop (run_closed_loop below), a time-share trial by timeshare_trial."""
    ch, strat, y0 = _trial_setup(target, channel, exp, trial)
    if isinstance(target, TimeShareConfig):
        return timeshare_trial(target, quantizer, ch, strat, exp.steps, y0)[0]
    return run_closed_loop(target, quantizer, ch, strat, exp.steps, y0)


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
    """Monte Carlo experiment run one trial at a time and reduced by reduce_traces."""
    return reduce_traces(
        [_run_trial(target, quantizer, channel, exp, t) for t in range(exp.trials)], exp
    )


def reduce_traces(traces: Sequence[SimTrace], exp) -> DecayReport:
    """An experiment's report from its trials' traces, reduced over stacked arrays.

    Every trial is turned into squared-output, squared-sigma and weight
    rows first; the means are weighted column sums of the stacked rows.
    """
    results = [_trial_arrays(trace, exp.steps) for trace in traces]
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


def write_rows_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    stream.write(",".join(cols) + "\n")
    for row in rows:
        out = []
        for c in cols:
            v = row[c]
            out.append(repr(v) if isinstance(v, float) else str(v))
        stream.write(",".join(out) + "\n")


# ------------------------------------------------------------ closed loop


# The codec's step functions as they stood before one definition served the
# scalar loop and the lockstep batches, copied verbatim: one trial of floats
# and Intervals, a lost symbol passed as LOST.

LOST = None


def quantize(levels: int, v: float) -> int:
    """Uniform N-level quantizer on [-1/2, 1/2]; the top cell is closed.

    Raises SaturationError if v lies outside the range by more than a tiny
    numerical slack, or is NaN; within the slack v is clamped.
    """
    if not -0.5 <= v <= 0.5:
        if not -0.5 - SATURATION_TOL <= v <= 0.5 + SATURATION_TOL:
            raise SaturationError(f"quantizer input {v} outside [-1/2, 1/2]")
        v = 0.5 if v > 0.5 else -0.5
    i = int((v + 0.5) * levels)
    return levels - 1 if i >= levels else i


def decode_cell(levels: int, sigma: float, center: float, symbol: int | None) -> Interval:
    """Estimation interval for the output given the channel outcome.

    On reception of symbol i this is cell i of the range
    [center - sigma/2, center + sigma/2]; on loss (symbol is LOST) it is
    the whole range.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lo = center - sigma / 2.0
    if symbol is LOST:
        return Interval(lo, center + sigma / 2.0)
    if not 0 <= symbol < levels:
        raise ValueError(f"symbol {symbol} outside alphabet of size {levels}")
    w = sigma / levels
    if symbol == levels - 1:
        return Interval(center + sigma / 2.0 - w, center + sigma / 2.0)
    return Interval(lo + symbol * w, lo + (symbol + 1) * w)


def predict(plant: UncertainPlant, cells: Sequence[Interval]) -> Interval:
    """One-step prediction set from the last n estimation intervals.

    cells are oldest-first; the set is the Minkowski sum of the products
    of each coefficient box with its matching interval, so its length is
    exactly the sum of the product-hull lengths.
    """
    n = plant.n
    if len(cells) != n:
        raise ValueError(f"need {n} stored cells, got {len(cells)}")
    a_star, eps = plant.a_star, plant.eps
    acc_lo = 0.0
    acc_hi = 0.0
    for i in range(n):
        a, e = a_star[i], eps[i]
        prod = scale_product(Interval(a - e, a + e), cells[n - 1 - i])
        acc_lo += prod.lo
        acc_hi += prod.hi
    return Interval(acc_lo, acc_hi)


def advance_scaling(prediction: Interval, u: float) -> tuple[float, float]:
    """Next (sigma, center): minimal admissible range and its shifted midpoint."""
    sigma = measure(prediction)
    if sigma < SIGMA_MIN:
        sigma = SIGMA_MIN
    return sigma, midpoint(prediction) + u


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


def measure(iv: Interval) -> float:
    """Length hi - lo (the Lebesgue measure of the interval)."""
    return iv.hi - iv.lo


# The runtime's predict and advance_scaling as they stood before the loop formed each
# coefficient's product hull inline and unpacked the prediction once, copied verbatim
# but for their names and scale_product's (slot_scale_product here).


def predict_by_hulls(boxes: Sequence[Interval], cells: Sequence[Interval], ops: Ops = FLOATS) -> Interval:
    """One-step prediction set from the coefficient boxes and the last n estimation intervals.

    cells are oldest-first, so box i meets cells[n - 1 - i]; the set is the
    Minkowski sum of the products, so its length is exactly the sum of the
    product-hull lengths.
    """
    if len(cells) != len(boxes):
        raise ValueError(f"need {len(boxes)} stored cells, got {len(cells)}")
    lo = hi = 0.0
    for box, cell in zip(boxes, reversed(cells)):
        prod = slot_scale_product(box, cell, ops)
        lo = lo + prod.lo  # never in place: the sums may be arrays
        hi = hi + prod.hi
    return Interval(lo, hi)


def advance_scaling_by_measure(prediction: Interval, u, ops: Ops = FLOATS) -> tuple:
    """Next (sigma, center): minimal admissible range and its shifted midpoint."""
    return ops.maximum(measure(prediction), SIGMA_MIN), midpoint(prediction) + u


# The reception flag as it stood before one rule (channel.received) served the
# scalar loop and the lockstep batches, copied verbatim.


def draw(ch: ChannelConfig, k: int) -> int:
    """Reception flag at time k: 0 (lost) with probability p, else 1."""
    if k < 0:
        raise ValueError(f"time index must be >= 0, got {k}")
    if ch.p == 0.0:
        return 1
    return 0 if uniform01(ch.seed, k) < ch.p else 1


@dataclass
class CodecState:
    """Shared encoder/decoder state, reconstructible on both sides.

    cells holds the last n estimation intervals oldest-first; steps before
    time 0 contribute the degenerate interval {0} since the output is
    known to be zero there.
    """

    plant: UncertainPlant
    levels: int
    sigma: float
    center: float = 0.0
    cells: list[Interval] = field(default_factory=list)

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"initial sigma must be positive, got {self.sigma}")
        if not self.cells:
            self.cells = [Interval(0.0, 0.0)] * self.plant.n

    def encode(self, y: float) -> int:
        return quantize(self.levels, (y - self.center) / self.sigma)

    def observe(self, gamma: int, symbol: int | None) -> Interval:
        """Store the estimation interval implied by the channel outcome."""
        cell = decode_cell(
            self.levels, self.sigma, self.center, symbol if gamma else LOST
        )
        self.cells.pop(0)
        self.cells.append(cell)
        return cell

    def advance(self, u: float) -> Interval:
        """Advance (sigma, center) past one step with input u."""
        pred = predict(self.plant, self.cells)
        self.sigma, self.center = advance_scaling(pred, u)
        return pred


ParamContext = Callable[[Sequence[float]], float]


def realize_params(
    plant: UncertainPlant,
    strategy: ParamStrategy,
    k: int,
    context: ParamContext | None = None,
) -> tuple[float, ...]:
    """Coefficient vector of step k according to the strategy.

    context maps a full parameter vector to the candidate next output and
    is required for greedy_adversarial, which sweeps the coordinates once,
    keeping for each the endpoint that gives the larger |next output|
    (starting from the nominal vector, so the result never does worse than
    nominal).
    """
    kind = strategy.kind
    if kind == "nominal":
        return plant.a_star
    if kind == "fixed_vertex":
        signs = strategy.signs
        if signs is None or len(signs) != plant.n:
            raise ValueError(f"sign pattern must have length {plant.n}")
        return tuple(a + s * e for a, s, e in zip(plant.a_star, signs, plant.eps))
    if kind == "iid_uniform":
        return iid_params(plant, strategy.seed, k)
    # greedy_adversarial
    if context is None:
        raise ValueError("greedy_adversarial strategy needs a context function")
    current = list(plant.a_star)
    for i in range(plant.n):
        if plant.eps[i] == 0.0:
            continue
        lo, hi = plant.box(i)
        current[i] = lo
        y_lo = abs(context(current))
        current[i] = hi
        y_hi = abs(context(current))
        current[i] = hi if y_hi >= y_lo else lo
    return tuple(current)


def run_closed_loop(
    plant: UncertainPlant,
    quantizer: QuantizerSpec,
    channel: ChannelConfig,
    strategy: ParamStrategy,
    steps: int,
    y0: float,
) -> SimTrace:
    """Run the synchronized loop for `steps` steps starting from y0.

    sigma starts at the plant's initial output bound (the minimal choice),
    center at 0, so the quantizer covers y0 in [-Y0/2, Y0/2].  Terminates
    early once sigma passes the convergence or divergence guard (end_status).
    """
    if not abs(y0) <= plant.y0_bound / 2.0:
        raise ValueError(f"|y0| = {abs(y0)} exceeds half the declared bound {plant.y0_bound}")
    n = plant.n
    state = CodecState(plant=plant, levels=quantizer.levels, sigma=plant.y0_bound)
    history = [0.0] * (n - 1) + [y0]
    trace = SimTrace()

    needs_context = strategy.kind == "greedy_adversarial"
    fixed_params = None
    if strategy.kind in ("nominal", "fixed_vertex"):
        fixed_params = realize_params(plant, strategy, 0)

    for k in range(steps):
        sigma_k = state.sigma
        symbol = state.encode(history[-1])
        gamma = draw(channel, k)
        state.observe(gamma, symbol)
        u = control(plant, state.cells)
        state.advance(u)
        if fixed_params is not None:
            params = fixed_params
        elif needs_context:
            params = realize_params(
                plant, strategy, k, context=lambda p: step_unchecked(history, u, p)
            )
        else:
            params = realize_params(plant, strategy, k)
        y_next = step_unchecked(history, u, params)
        trace.y.append(history[-1])
        trace.sigma.append(sigma_k)
        history.pop(0)
        history.append(y_next)
        if status := end_status(state.sigma):
            trace.status = status
            return trace
    return trace


# ------------------------------------------------------------ time-share loop


@dataclass(frozen=True)
class Cycle:
    """What the decoder knew in one time-share cycle."""

    received: int  # packets received out of m
    center: float
    cell: Interval  # decoded at resolution N^received
    u_end: float  # the input of the cycle's last slot


def timeshare_trial(
    cfg: TimeShareConfig, quantizer: QuantizerSpec, channel: ChannelConfig,
    strategy: ParamStrategy, cycles: int, y0: float
) -> tuple[SimTrace, list[Cycle]]:
    """Run one time-share trial from y0, cycle by cycle, with scalar floats.

    Each cycle counts the packets received (s), decodes the cell at resolution
    N^s (N = quantizer.levels), sets u_end from its midpoint, steps the plant
    through the cycle and advances (sigma, center) by advance_scaling.  The
    trial ends as end_status says.  A range breach raises quantize's
    SaturationError, with the breaching cycle as its `cycle` attribute.
    Returns the trace and every cycle.
    """
    n_slot, m = int(quantizer.levels), cfg.m
    plant, hull = cfg.plant(), power_hull(cfg.a_star, cfg.eps, m)
    sigma, center, y = cfg.y0_bound, 0.0, y0
    trace, decoded = SimTrace(), []
    for j in range(cycles):
        trace.y.append(y)
        trace.sigma.append(sigma)
        received = sum(draw(channel, m * j + i) for i in range(m))
        res = n_slot**received
        w = sigma / res
        try:
            idx = quantize(res, (y - center) / sigma)
        except SaturationError as exc:
            exc.cycle = j
            raise
        lo = center - sigma / 2.0 + idx * w
        cell = Interval(lo, center + sigma / 2.0 if idx == res - 1 else lo + w)
        u_end = -cfg.a_star**m * midpoint(cell)
        decoded.append(Cycle(received, center, cell, u_end))
        for i in range(m):
            u = u_end if i == m - 1 else 0.0
            (a,) = realize_params(plant, strategy, m * j + i, context=lambda q: q[0] * y + u)
            y = a * y + u
        sigma, center = advance_scaling(scale_product(hull, cell), u_end)
        if status := end_status(sigma):
            trace.status = status
            break
    return trace, decoded


def replay_timeshare(
    cfg: TimeShareConfig, quantizer: QuantizerSpec, channel: ChannelConfig,
    strategy: ParamStrategy, trace: SimTrace
) -> list[Cycle]:
    """Re-run a time-share trace's trial by timeshare_trial; its cycles.

    Asserts that the trace's y, sigma and status equal the re-run's bit for
    bit (float.hex tells -0.0 from 0.0).
    """
    want, decoded = timeshare_trial(cfg, quantizer, channel, strategy, len(trace), trace.y[0])

    def fields(t: SimTrace):
        return [float(v).hex() for v in t.y], [float(v).hex() for v in t.sigma], t.status

    assert fields(trace) == fields(want)
    return decoded


# ------------------------------------------------------------ interval arithmetic


ZERO = Interval(0.0, 0.0)


def interval(lo: float, hi: float) -> Interval:
    """Validated constructor; rejects lo > hi and non-finite endpoints."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    return Interval(lo, hi)


def contains(iv: Interval, x: float, tol: float = 0.0) -> bool:
    """Closed membership test, optionally relaxed by tol on both sides."""
    return iv.lo - tol <= x <= iv.hi + tol


def minkowski_sum(a: Interval, b: Interval) -> Interval:
    """Set sum {x + y}; lengths add exactly for intervals."""
    return Interval(a.lo + b.lo, a.hi + b.hi)


def beta(y: Interval) -> float:
    """Uncertainty leverage of an interval: how far its endpoints sit from 0.

    Three branches: hi + lo when the interval is nonnegative, hi - lo when
    it straddles 0, -hi - lo when it is nonpositive.  Mirror symmetric,
    always >= 0 for a valid interval.
    """
    if y.lo >= 0.0:
        return y.hi + y.lo
    if y.hi <= 0.0:
        return -y.hi - y.lo
    return y.hi - y.lo


def product_measure_cases(a_star: float, eps: float, y: Interval) -> float:
    """Measure of the product hull [a*-eps, a*+eps] * y by case analysis.

    Equals measure(scale_product(...)) exactly; the case split avoids
    forming the hull.  With A := [a*-eps, a*+eps]:

      A not containing 0, y containing 0:      (|a*|+eps) * mu(y)
      A and y both away from 0:                |a*|*mu(y) + eps*|hi+lo|
      A containing 0, y away from 0:           2*eps*max(|hi|, |lo|)
      A and y both containing 0:               endpoint formula below

    The last case needs both hull endpoints: each extreme product is a
    competition between the two "outward" endpoint pairs.
    """
    if eps < 0.0:
        raise ValueError(f"uncertainty radius must be nonnegative, got {eps}")
    abs_a = abs(a_star)
    width = y.hi - y.lo
    if abs_a > eps:  # A does not contain 0
        if y.lo <= 0.0 <= y.hi:
            return (abs_a + eps) * width
        return abs_a * width + eps * abs(y.hi + y.lo)
    # A contains 0
    if not (y.lo <= 0.0 <= y.hi):
        return 2.0 * eps * max(abs(y.hi), abs(y.lo))
    # both contain 0; reduce to a* >= 0 by mirror symmetry of the measure
    h, l = (y.hi, -y.lo) if a_star >= 0.0 else (-y.lo, y.hi)
    upper = max((abs_a + eps) * h, (eps - abs_a) * l)
    lower = max((eps - abs_a) * h, (abs_a + eps) * l)
    return upper + lower


# ------------------------------------------------------------ growth factors and loss limits


def eta(lambda_abs: float, eps_n: float, n_levels: float, gamma: int) -> float:
    """Worst-case one-reception growth factor of the scaling parameter.

    With M := N^gamma (1 on loss), eta = (|lambda| + max(M-1, 1)*eps) / M.
    Real-valued N >= 1 is allowed; the analysis branches at N = 2.
    """
    m = n_levels**gamma
    return (abs(lambda_abs) + max(m - 1.0, 1.0) * eps_n) / m


def eta_second_moment(lambda_abs: float, eps_n: float, p: float, n_levels: float) -> float:
    """E[eta^2] over the Bernoulli reception flag; < 1 is necessary for MSS."""
    if n_levels < 1.0:
        raise ValueError(f"need N >= 1, got {n_levels}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"loss probability must be in [0, 1), got {p}")
    return p * eta(lambda_abs, eps_n, n_levels, 0) ** 2 + (1.0 - p) * eta(
        lambda_abs, eps_n, n_levels, 1
    ) ** 2


def _hull_measure_exact(a_lo: Fraction, a_hi: Fraction, y_lo: Fraction, y_hi: Fraction) -> Fraction:
    products = (a_lo * y_lo, a_lo * y_hi, a_hi * y_lo, a_hi * y_hi)
    return max(products) - min(products)


def max_cell_expansion(
    a_n_star: float, eps_n: float, n_levels: int, gamma: int, sigma: float
) -> float:
    """Largest product-hull length over all decoder cells at one step.

    Brute force in exact rational arithmetic: enumerate the N quantizer
    cells of [-sigma/2, sigma/2] (reception) or the whole range (loss),
    and maximize the length of the coefficient-box product hull.  Equals
    eta * sigma; the enumeration is the independent check of that
    identity.
    """
    if n_levels < 1 or n_levels != int(n_levels):
        raise ValueError(f"need integer N >= 1, got {n_levels}")
    if gamma not in (0, 1):
        raise ValueError(f"gamma must be 0 or 1, got {gamma}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    a_lo = Fraction(a_n_star) - Fraction(eps_n)
    a_hi = Fraction(a_n_star) + Fraction(eps_n)
    s = Fraction(sigma)
    if gamma == 0:
        return float(_hull_measure_exact(a_lo, a_hi, -s / 2, s / 2))
    n = int(n_levels)
    best = Fraction(0)
    for i in range(n):
        y_lo = -s / 2 + s * i / n
        y_hi = -s / 2 + s * (i + 1) / n
        best = max(best, _hull_measure_exact(a_lo, a_hi, y_lo, y_hi))
    return float(best)


def branch_loss_limits(lambda_abs: float, eps_n: float) -> tuple[float, float]:
    """Loss limits of the two necessary-rate branches, (p_nec0, p_nec1).

    p_nec0 = 1/(|lambda| + eps)^2 is where the low-rate branch radicand
    vanishes; p_nec1 = (1 - eps^2)/(|lambda|^2 + 2|lambda|eps) is the loss
    limit of the high-rate branch.
    """
    lam = abs(lambda_abs)
    outer = lam + eps_n
    p_nec0 = 1.0 / outer**2
    p_nec1 = (1.0 - eps_n**2) / (lam**2 + 2.0 * lam * eps_n)
    return p_nec0, p_nec1


# ------------------------------------------------------------ loss windows


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


# ------------------------------------------------------------ plant


def lambda_pi(plant: UncertainPlant) -> float:
    """Product of the nominal eigenvalues; equals the last coefficient an*."""
    return plant.a_star[-1]


def step(
    plant: UncertainPlant,
    history: Sequence[float],
    u: float,
    params: Sequence[float],
) -> float:
    """One plant step: y_next = sum_i params[i] * history[-i] + u.

    history holds the last n outputs oldest-first, i.e.
    (y[k-n+1], ..., y[k]); params[i] is the realized coefficient a_{i+1}
    multiplying y[k-i].
    """
    if len(history) != plant.n or len(params) != plant.n:
        raise ValueError("history and params must both have length n")
    for i, (a, e, v) in enumerate(zip(plant.a_star, plant.eps, params)):
        if not (a - e <= v <= a + e):
            raise ValueError(f"parameter {i} = {v} outside [{a - e}, {a + e}]")
    return step_unchecked(history, u, params)


def companion_matrix(params: Sequence[float]) -> np.ndarray:
    """Controllable-canonical A matrix for one realized coefficient vector."""
    n = len(params)
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = 1.0
    # last row carries (an, a(n-1), ..., a1)
    m[n - 1, :] = list(reversed(params))
    return m


@dataclass(frozen=True)
class InstabilityDiagnostic:
    params: tuple[float, ...]
    min_eigenvalue_modulus: float


def check_unstable_assumption(
    plant: UncertainPlant, grid: int = 3, max_reports: int = 100
) -> list[InstabilityDiagnostic]:
    """Sampled check that every eigenvalue stays outside the unit circle.

    Sweeps all box vertices plus a per-coordinate grid and reports any
    sampled coefficient vector whose companion matrix has an eigenvalue
    with modulus <= 1.  Warn-only by design: the analysis assumes the
    property, it does not require verifying it, and the hard
    |an*| - eps_n > 1 check already ran at construction.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    axes = []
    for i in range(plant.n):
        lo, hi = plant.box(i)
        pts = {lo, hi}
        if grid > 1:
            pts.update(np.linspace(lo, hi, grid).tolist())
        axes.append(sorted(pts))
    out: list[InstabilityDiagnostic] = []
    idx = [0] * plant.n
    while True:
        params = tuple(axes[i][idx[i]] for i in range(plant.n))
        eig = np.linalg.eigvals(companion_matrix(params))
        worst = float(np.min(np.abs(eig)))
        if worst <= 1.0:
            out.append(InstabilityDiagnostic(params, worst))
            if len(out) >= max_reports:
                return out
        for i in range(plant.n):
            idx[i] += 1
            if idx[i] < len(axes[i]):
                break
            idx[i] = 0
        else:
            return out
