"""Trial orchestration and empirical stability classification.

The verdict is driven by the scaling parameter rather than the output:
the output is bounded by a fixed multiple of the recent scaling values,
and the scaling sequence is deterministic given the loss sequence, so its
sample mean has far lower variance.  Mean squared output is reported
alongside.  Each trial has its own injective seed.

Time-share experiments always step their trials in lockstep numpy arrays
(run_timeshare_loop_batch).  For closed-loop experiments the trial count
picks the layout: from BATCH_MIN_TRIALS = 12 trials on they run batched
(run_closed_loop_batch), narrower ones one scalar trial at a time.  By 12
the batch has overtaken the scalar loop in the median over orders 1-3 and
the four strategies (400 steps, p = 0.05, 2-core Xeon: 1.71x the scalar
time at 6 trials, 1.33x at 8, 1.10x at 10, 0.92x at 12, 0.67x at 16).  A
scalar trial draws its whole horizon in one block, which left the crossover
between 10 and 12 trials.  The time-share loop has one layout
because no measured workload runs a narrow time-share experiment, so a
second loop would be code to keep in step for nothing.  Both closed-loop
layouts run one loop body (codec_loop), on floats or on trial slots, and
the per-step sums add trials in trial order (never np.sum, whose pairwise
order differs), so a seeded decay CSV is bit-identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, derive_seed, uniform01
from .codec_loop import (
    CONVERGED,
    DIVERGED,
    DIVERGED_SIGMA,
    QuantizerSpec,
    run_closed_loop,
    run_closed_loop_batch,
)
from .limits import necessary_bounds
from .mjls import min_sufficient_level_real, sufficient_mss
from .plant import ParamStrategy, UncertainPlant
from .timeshare import (
    TimeShareConfig,
    deltas,
    kappa_bar,
    lossless_bound,
    min_feasible_average_level,
    run_timeshare_loop_batch,
)

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"
# From BATCH_MIN_TRIALS trials on, closed-loop experiments run batched (module
# docstring); a batched experiment runs BATCH_MAX_TRIALS trials at a time: the per-step
# temporaries and the per-trial rows grow with the batch (at order 6 on a 2-core
# Xeon, 100000 x 2 as one batch peaked at 123 MB; 500000 x 2 in batches of 4096 at 34 MB).
BATCH_MIN_TRIALS, BATCH_MAX_TRIALS = 12, 4096
# Cap on trial steps x max(order, 6) per experiment, or per sweep's experiments
# (order: plant order or time-share cycle; a step costs about in proportion).
# 10^6 trial steps at order 6 took 15-31 s and 420 MB as one scalar trial on a
# 2-core Xeon; batched, 0.6-1.8 s as 2500 x 400, 18 s as 500000 x 2, 31 s as 12 x 83333.
MAX_WORK = 6_000_000
# A time-share batch narrower than TIMESHARE_MIN_TRIALS costs about as much as one that
# wide (at m = 2, 1 x 83333 cycles took 12 s and 12 x 83333 14 s; 1 x 10^6 took 143 s), so
# it counts that many trials against MAX_WORK.  It is not BATCH_MIN_TRIALS, the closed-loop
# layout crossover, so that a crossover measurement cannot move it.
TIMESHARE_MIN_TRIALS = 12


@dataclass(frozen=True)
class Experiment:
    trials: int
    steps: int
    base_seed: int = 0
    strategy: ParamStrategy = field(default_factory=ParamStrategy)
    tol_slope: float = 1e-3

    def __post_init__(self):
        if self.trials < 1 or self.steps < 2:
            raise ValueError("need at least 1 trial and 2 steps")
        if not (math.isfinite(self.tol_slope) and self.tol_slope >= 0.0):
            raise ValueError(f"slope tolerance must be finite and >= 0, got {self.tol_slope}")


def _check_work(trial_steps: int, order: int, counted: str = "") -> None:
    cap = MAX_WORK // max(order, 6)
    if trial_steps > cap:
        raise ValueError(
            f"{trial_steps} trial steps{counted} at order {order} exceed the cap of {cap}")


@dataclass(frozen=True)
class DecayReport:
    mean_sq_y: np.ndarray
    mean_sq_sigma: np.ndarray
    slope: float
    verdict: str
    diverged_trials: int
    converged_trials: int

    def rows(self) -> list[tuple]:
        """The decay table for write_rows_csv: its header, then one (k, mean_sq_y,
        mean_sq_sigma) row a step, in Python floats (repr(np.float64(x)) is np.float64(...))."""
        ys, sigmas = self.mean_sq_y.tolist(), self.mean_sq_sigma.tolist()
        return [("k", "mean_sq_y", "mean_sq_sigma"), *zip(range(len(ys)), ys, sigmas)]


def _trial_setup(target, channel: ChannelConfig, exp: Experiment, trial):
    """Channel, strategy and start of trial `trial`; of a uint64 array of trials, one entry each."""
    root = derive_seed(exp.base_seed, trial)
    ch = ChannelConfig(p=channel.p, seed=derive_seed(root, 0))
    y0 = (2.0 * uniform01(derive_seed(root, 2), 0) - 1.0) * target.y0_bound / 2.0
    return ch, replace(exp.strategy, seed=derive_seed(root, 1)), y0


def _trial_rows(target, quantizer, channel, exp: Experiment, run_batch, batch_from: int):
    """(y, sigma, status) of every trial in trial order: by run_batch, or one closed-loop
    trial at a time in an experiment of fewer than batch_from trials."""
    if exp.trials < batch_from:
        for trial in range(exp.trials):
            ch, strat, y0 = _trial_setup(target, channel, exp, trial)
            trace = run_closed_loop(target, quantizer, ch, strat, exp.steps, y0)
            yield np.asarray(trace.y), np.asarray(trace.sigma), trace.status
        return
    for first in range(0, exp.trials, BATCH_MAX_TRIALS):
        chunk = np.arange(first, min(first + BATCH_MAX_TRIALS, exp.trials), dtype=np.uint64)
        ch, strat, y0 = _trial_setup(target, channel, exp, chunk)
        yield from run_batch(target, quantizer, ch, strat, exp.steps, y0)


def run_experiment(
    target: UncertainPlant | TimeShareConfig,
    quantizer: QuantizerSpec,
    channel: ChannelConfig,
    exp: Experiment,
) -> DecayReport:
    """Average many seeded trials and classify the decay of E[sigma^2].

    The quantizer sets the level of either target: a time-share target sends
    each measurement as m packets of quantizer.levels levels each.  Only the
    channel's loss probability is read: each trial's channel seed, like its
    strategy seed and initial output, derives from exp.base_seed.

    A diverged trial counts only up to its last recorded step; any other
    trial counts over the whole horizon, its early-converged tail as zero.
    The slope is a least-squares fit to log mean-square sigma over the
    second half of the horizon; below -tol_slope per step is stable,
    above +tol_slope (or any diverged trial) unstable, else inconclusive.
    """
    if target.y0_bound > DIVERGED_SIGMA:  # the first recorded sigma is Y0: keep its square finite
        raise ValueError(f"Y0 = {target.y0_bound} exceeds the divergence guard {DIVERGED_SIGMA}")
    # the target sets a step's cost (its order), the fewest trials counted, and the layouts
    if isinstance(target, TimeShareConfig):
        order, floor, run_batch, batch_from = target.m, TIMESHARE_MIN_TRIALS, run_timeshare_loop_batch, 1
    else:
        order, floor, run_batch, batch_from = target.n, 1, run_closed_loop_batch, BATCH_MIN_TRIALS
    counted = f" (a time-share run counts at least {floor} trials)" if exp.trials < floor else ""
    _check_work(max(exp.trials, floor) * exp.steps, order, counted)
    sum_sq_y = np.zeros(exp.steps)
    sum_sq_sigma = np.zeros(exp.steps)
    counts = np.zeros(exp.steps)
    diverged = converged = 0
    for y, s, status in _trial_rows(target, quantizer, channel, exp, run_batch, batch_from):
        got = len(y)
        sum_sq_y[:got] += y * y
        sum_sq_sigma[:got] += s * s
        if status == DIVERGED:
            counts[:got] += 1.0
            diverged += 1
        else:
            counts += 1.0
            converged += status == CONVERGED
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_sq_y = np.where(counts > 0, sum_sq_y / counts, np.nan)
        mean_sq_sigma = np.where(counts > 0, sum_sq_sigma / counts, np.nan)
    slope = _fit_slope(mean_sq_sigma)
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


def _fit_slope(mean_sq_sigma: np.ndarray) -> float:
    """Log-decay rate per step over the second half of the horizon.

    Steps where the mean has underflowed to zero mean every trial
    converged past the floor; if the whole window is like that the decay
    is as strong as representable, reported as -inf.
    """
    steps = len(mean_sq_sigma)
    half = steps // 2
    ks = np.arange(half, steps)
    vals = mean_sq_sigma[half:]
    ok = np.isfinite(vals) & (vals > 0.0)
    if ok.sum() == 0:
        return -math.inf
    if ok.sum() == 1:
        return 0.0
    coeff = np.polyfit(ks[ok], np.log(vals[ok]), 1)
    return float(coeff[0])


def sweep(
    plant: UncertainPlant,
    var: str,
    values,
    *,
    channel_p: float = 0.0,
    n_levels: float | None = None,
    empirical: Experiment | None = None,
) -> list[dict]:
    """Grid evaluation of the analytic limits, one row per grid point.

    var is one of lambda (sweeps the magnitude of the last coefficient,
    keeping its sign), p, or N.  Columns follow the fixed schema: grid
    value, the necessary bounds, the loss limit, the spectral radius at
    n_levels (empty when not given, and at a grid point below 2 over N),
    the minimal real sufficient level, and the empirical verdict (empty
    unless an experiment is supplied, which needs n_levels over lambda or p).
    """
    if var not in ("lambda", "p", "N"):
        raise ValueError(f"sweep variable must be lambda, p, or N, got {var!r}")
    quantizers = {}
    if empirical is not None:  # each level is refused or built before a closed form runs
        levels, flag = (values, "--range") if var == "N" else ([n_levels], "--N")
        quantizers = {level: QuantizerSpec(level, flag) for level in levels}
        _check_work(len(values) * empirical.trials * empirical.steps, plant.n)
    rows = []
    for v in values:
        cur_plant = plant
        cur_p = channel_p
        cur_n = n_levels
        if var == "lambda":
            sign = 1.0 if plant.a_star[-1] >= 0 else -1.0
            coeffs = plant.a_star[:-1] + (sign * v,)
            cur_plant = replace(plant, a_star=coeffs)
        elif var == "p":
            cur_p = v
        else:
            cur_n = v
        again = var != "N" or not rows  # over N, plant and p stay: so do the columns they set
        if again:
            nb = necessary_bounds(abs(cur_plant.a_star[-1]), cur_plant.eps[-1], cur_p)
        rho = ""
        if cur_n is not None and (var != "N" or cur_n >= 2.0):  # theta refuses an --N below 2
            rho = sufficient_mss(cur_plant, cur_n, cur_p).rho
        if again:
            min_level = min_sufficient_level_real(cur_plant, cur_p)
        verdict = ""
        if empirical is not None:
            report = run_experiment(cur_plant, quantizers[cur_n], ChannelConfig(p=cur_p), empirical)
            verdict = report.verdict
        rows.append(
            {
                var: v,
                "r_nec0": nb.r_nec0,
                "r_nec1": nb.r_nec1,
                "r_nec": nb.r_nec,
                "p_nec": nb.p_nec,
                "rho": rho,
                "min_N": min_level,
                "verdict": verdict,
            }
        )
    return rows


def sweep_timeshare(
    a_star: float,
    eps: float,
    m_values,
    *,
    channel_p: float = 0.0,
) -> list[dict]:
    """Duration sweep for the time-sharing protocol (fixed column schema)."""
    rows = []
    for m in m_values:
        cfg = TimeShareConfig(a_star=a_star, eps=eps, m=m)
        # the search's first probe checks p, before the closed forms can overflow
        found = min_feasible_average_level(cfg, channel_p)
        dp, dm = deltas(a_star, eps, m)
        r_bar, feasible = lossless_bound(a_star, eps, m)
        total, avg = found if found is not None else ("", "")
        kbar = "" if found is None else kappa_bar(cfg, avg, channel_p)
        rows.append(
            {
                "m": m,
                "delta_plus": dp,
                "delta_minus": dm,
                "kappa_bar": kbar,
                "r_bar": r_bar,
                "feasible": feasible,
                "min_total_level": total,
                "avg_level": avg,
            }
        )
    return rows


def write_rows_csv(rows: list, stream) -> None:
    """Write a table as CSV in one write, a float cell as its repr and any other as its str.
    rows is a list of dicts with one set of keys, the columns (a sweep's), or a header of
    column names followed by rows of cells (DecayReport.rows)."""
    if rows and isinstance(rows[0], dict):
        cols = list(rows[0])
        rows = [cols, *([row[c] for c in cols] for row in rows)]
    cells = [[repr(v) if isinstance(v, float) else str(v) for v in col] for col in zip(*rows)]
    stream.write("".join([",".join(line) + "\n" for line in zip(*cells)]))
