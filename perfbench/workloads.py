"""Seeded query sets for the three workloads.

Each workload is a list of CLI argument vectors (without ``--out``) plus,
per query, the property it was drawn to have, which ``oracle.check``
tests afterwards.  Everything is drawn with ``random.Random`` from the
workload seed and this module's own closed forms and dense eigen-oracle,
so the program under test only ever sees the generated inputs.

Draws are kept inside bands that hold each query's cost roughly level
from seed to seed (Monte Carlo runs reach the horizon, level searches
stop within a bounded count), so run-to-run spread reflects the program
and not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracle

STRATEGIES = ("nominal", "fixed_vertex", "iid_uniform", "greedy_adversarial")
WIDE_TRIALS, STEPS = 200, 400  # README scale
# Stable draws need spectral margin below this and an all-received decay
# no faster than RECEIVED_FLOOR, so no trial converges before the horizon.
RHO_CAP = 0.9
RECEIVED_FLOOR = 0.45
TIMESHARE_CAP = 1_000_000  # the program's default search cap
SHORT_REPEATS = 4  # asks per round of each query that takes milliseconds

# The README examples, run verbatim on every seed.
README_LAMBDA_SWEEP = [
    "sweep", "--n", "2", "--a-star", "1,1.5", "--eps", "0.05,0.05", "--p", "0.05",
    "--var", "lambda", "--range", "1.5:4.3:0.05",
]
README_DURATION_SWEEP = [
    "sweep", "--n", "1", "--a-star", "3.3", "--eps", "0.025", "--p", "0",
    "--var", "m", "--range", "1:4:1",
]


@dataclass
class Query:
    id: str
    argv: list[str]
    check: dict = field(default_factory=dict)
    repeats: int = 1  # short queries repeat within a round to average out jitter


@dataclass
class Workload:
    name: str
    queries: list[Query]
    warmups: list[list[str]]  # one small untimed query of each kind


def _floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def _plant_args(a, eps, p) -> list[str]:
    # --flag=value keeps argparse from reading a leading minus as an option
    return [
        "--n", str(len(a)), f"--a-star={_floats(a)}", f"--eps={_floats(eps)}",
        "--p", repr(float(p)),
    ]


def _signs(n: int) -> list[str]:
    return ["--signs", ",".join("+-"[i % 2] for i in range(n))]


def _draw_plant(rng: random.Random, n: int, coeff: float, eps_max: float, lam: tuple):
    eps = [rng.uniform(0.0, eps_max) for _ in range(n)]
    a = [rng.uniform(-coeff, coeff) for _ in range(n)]
    a[-1] = rng.choice((-1.0, 1.0)) * rng.uniform(1.0 + eps[-1] + lam[0], lam[1])
    return a, eps


# ------------------------------------------------------------------ mc_verify


def _stable_config(rng: random.Random, n: int):
    """Plant, level and loss with spectral margin < RHO_CAP (as acceptance 08)."""
    while True:
        a, eps = _draw_plant(rng, n, 1.0, 0.2, (0.05, 2.6))
        p = rng.uniform(0.0, 0.2)
        for levels in range(2, 65):
            margin = oracle.rho(a, eps, levels, p)
            if margin < RHO_CAP:
                break
        else:
            continue
        if oracle.received_radius(a, eps, levels) >= RECEIVED_FLOOR:
            return a, eps, levels, p, margin


def _growth(a: float, e: float, p: float, levels: int) -> float:
    """Typical-path log growth per step of a scalar loop's scaling."""
    return p * math.log(a + e) + (1.0 - p) * math.log((a + (levels - 1) * e) / levels)


def _unstable_config(rng: random.Random, band: tuple, a_range: tuple, p_range=None):
    """Scalar config past the loss limit with typical log growth in band (as acceptance 09)."""
    while True:
        e = rng.uniform(0.05, 0.8)
        a = rng.uniform(max(1.0 + e + 0.2, a_range[0]), a_range[1])
        if p_range is None:
            p = min(0.9, oracle.p_nec(a, e) * rng.uniform(1.05, 1.5))
        else:
            p = rng.uniform(*p_range)
        levels = rng.randint(2, 8)
        g = _growth(a, e, p, levels)
        if p > oracle.p_nec(a, e) and band[0] <= g <= band[1]:
            return a, e, levels, p, g


def _simulate(a, eps, levels, p, strategy, trials, seed) -> list[str]:
    argv = ["simulate", *_plant_args(a, eps, p), "--N", str(levels),
            "--trials", str(trials), "--steps", str(STEPS), "--seed", str(seed),
            "--strategy", strategy]
    return argv + (_signs(len(a)) if strategy == "fixed_vertex" else [])


def mc_verify(seed: int) -> Workload:
    rng = random.Random(f"mc_verify:{seed}")
    wide: list[Query] = []
    for n, strategy in ((1, "nominal"), (2, "greedy_adversarial"), (3, "fixed_vertex"),
                        (2, "iid_uniform")):
        a, eps, levels, p, margin = _stable_config(rng, n)
        argv = _simulate(a, eps, levels, p, strategy, WIDE_TRIALS, rng.randrange(10**6))
        wide.append(Query(f"wide_n{n}_{strategy}", argv,
                          {"type": "mc", "expect": "stable", "margin": margin,
                           "strategy": strategy}))
    # time-share m=2 at a per-slot level with E[kappa^2] < RHO_CAP
    while True:
        e = rng.uniform(0.0, 0.1)
        a = rng.uniform(1.3 + e, 2.6)
        p = rng.uniform(0.0, 0.15)
        levels = next((k for k in range(2, 9) if oracle.kappa_bar(a, e, 2, k, p) < RHO_CAP), None)
        if levels is not None and oracle.kappa_bar(a, e, 2, levels, 0.0) ** 0.5 >= RECEIVED_FLOOR:
            break
    argv = _simulate([a], [e], levels, p, "greedy_adversarial", WIDE_TRIALS,
                     rng.randrange(10**6)) + ["--m", "2"]
    wide.append(Query("timeshare_m2", argv,
                      {"type": "mc", "expect": "stable", "margin": oracle.kappa_bar(a, e, 2, levels, p),
                       "strategy": "greedy_adversarial"}))
    # log growth >= 1.1 per step passes DIVERGED_SIGMA = 1e150 by about step 300 of 400
    a, e, levels, p, g = _unstable_config(rng, (1.1, 1.3), (4.0, 8.0), (0.4, 0.7))
    argv = _simulate([a], [e], levels, p, "greedy_adversarial", WIDE_TRIALS, rng.randrange(10**6))
    wide.append(Query("diverging", argv, {"type": "mc", "expect": "diverges", "margin": g,
                                          "strategy": "greedy_adversarial"}))

    narrow: list[Query] = []
    for i in range(40):
        strategy = STRATEGIES[(i // 2) % 4]
        trials = 1 + i % 4
        if i % 4 == 3:
            # growth 0.3-0.6 per step: clearly unstable even for one trial, no divergence by 400
            a, e, levels, p, g = _unstable_config(rng, (0.3, 0.6), (1.0, 4.0))
            a, eps, expect, margin = [a], [e], "unstable", g
        else:
            a, eps, levels, p, margin = _stable_config(rng, 1 + i % 3)
            expect = "stable"
        argv = _simulate(a, eps, levels, p, strategy, trials, rng.randrange(10**6))
        narrow.append(Query(f"narrow_{i}", argv, {"type": "mc", "expect": expect,
                                                  "margin": margin, "strategy": strategy},
                            SHORT_REPEATS))
    queries = []
    for i, q in enumerate(wide):
        queries += narrow[i * 7 : (i + 1) * 7] + [q]
    queries += narrow[len(wide) * 7 :]
    warm = [["simulate", *_plant_args([1.0, 2.5], [0.05, 0.05], 0.05), "--N", "8",
             "--trials", "2", "--steps", "50", "--strategy", s] + (_signs(2) if s == "fixed_vertex" else [])
            for s in STRATEGIES]
    warm.append(["simulate", *_plant_args([2.2], [0.05], 0.05), "--N", "3", "--m", "2",
                 "--trials", "2", "--steps", "50"])
    return Workload("mc_verify", queries, warm)


# ------------------------------------------------------------ spectral_design


def _min_level(a, eps, p, cap: int):
    """Smallest level <= cap with rho < 1 (rho is nonincreasing in the level)."""
    if oracle.rho(a, eps, cap, p) >= 1.0:
        return None
    lo, hi = 1, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 2 and oracle.rho(a, eps, mid, p) < 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def spectral_design(seed: int) -> Workload:
    rng = random.Random(f"spectral_design:{seed}")
    small: list[Query] = []
    for i in range(40):
        n = 1 + i % 4
        a, eps = _draw_plant(rng, n, 1.0, 0.2, (0.05, 2.6))
        p, levels = rng.uniform(0.0, 0.2), rng.randint(2, 32)
        argv = ["sufficient", *_plant_args(a, eps, p), "--N", str(levels)]
        small.append(Query(f"sufficient_n{n}_{i}", argv,
                           {"type": "rho", "a": a, "eps": eps, "N": levels, "p": p},
                           SHORT_REPEATS))
    for i in range(20):
        n = 1 + i % 4
        a, eps = _draw_plant(rng, n, 1.0, 0.2, (0.05, 2.6))
        p = rng.uniform(0.0, 0.2)
        small.append(Query(f"bounds_n{n}_{i}", ["bounds", *_plant_args(a, eps, p)],
                           {"type": "bounds", "lam": abs(a[-1]), "eps_n": eps[-1], "p": p},
                           SHORT_REPEATS))
    rng.shuffle(small)
    scans: list[Query] = []
    for i in range(12):
        while True:
            # loss near the limit pushes the level up; 16..28 solves per scan puts
            # the scans between the single tests and the order-5/6 tests, so the
            # tail percentile (10 queries above it) lands inside this class
            a, eps = _draw_plant(rng, 3, 1.0, 0.2, (0.05, 2.6))
            p = oracle.p_nec(abs(a[-1]), eps[-1]) * rng.uniform(0.5, 0.95)
            found = _min_level(a, eps, p, 28)
            if found is not None and found >= 16:
                break
        scans.append(Query(f"min_n_n3_{i}", ["sufficient", *_plant_args(a, eps, p), "--min-n"],
                           {"type": "min_n", "a": a, "eps": eps, "p": p}, SHORT_REPEATS))
    big: list[Query] = []
    for i, n in enumerate((5, 6, 5, 6, 5, 6)):
        a, eps = _draw_plant(rng, n, 0.5, 0.1, (0.2, 2.2))
        p, levels = rng.uniform(0.0, 0.1), rng.randint(4, 16)
        argv = ["sufficient", *_plant_args(a, eps, p), "--N", str(levels)]
        big.append(Query(f"sufficient_n{n}_{i}", argv,
                         {"type": "rho", "a": a, "eps": eps, "N": levels, "p": p}))
    heavy = scans + big + [Query("readme_lambda_sweep", README_LAMBDA_SWEEP, {"type": "reference"})]
    queries = []
    for i, q in enumerate(heavy):
        queries += small[i * 3 : (i + 1) * 3] + [q]
    queries += small[len(heavy) * 3 :]
    warm = [
        ["bounds", *_plant_args([1.0, 2.5], [0.05, 0.05], 0.05)],
        ["sufficient", *_plant_args([1.0, 2.5], [0.05, 0.05], 0.05), "--N", "4"],
        ["sufficient", *_plant_args([2.0], [0.05], 0.05), "--min-n"],
        README_LAMBDA_SWEEP[:-1] + ["1.5:1.6:0.05"],
    ]
    return Workload("spectral_design", queries, warm)


# ----------------------------------------------------------- timeshare_design


def _ts_min_total(a, e, m, p, cap: int):
    """Smallest total with kappa_bar < 1, or None when the boundary is too close to call."""
    prev = oracle.kappa_bar_total(a, e, m, 1, p)
    for total in range(2, cap + 1):
        cur = oracle.kappa_bar_total(a, e, m, total, p)
        if cur < 1.0:
            clear = abs(cur - 1.0) > 1e-9 and abs(prev - 1.0) > 1e-9
            return total if clear else None
        prev = cur
    return None


def timeshare_design(seed: int) -> Workload:
    rng = random.Random(f"timeshare_design:{seed}")
    queries: list[Query] = []
    for i in range(40):
        m = 1 + i % 3
        while True:
            e = rng.uniform(0.0, 0.1)
            a = rng.choice((-1.0, 1.0)) * rng.uniform(1.3 + e, 3.5)
            p = rng.uniform(0.0, 0.15)
            # totals 8..1000 keep each upward scan short and every duration feasible
            total = _ts_min_total(a, e, m, p, 1000)
            if total is not None and total >= 8:
                break
        argv = ["timeshare", "--n", "1", f"--a-star={a!r}", f"--eps={e!r}", "--p", repr(p),
                "--m", str(m)]
        c = {"type": "ts_total", "a": a, "eps": e, "p": p, "m": m, "cap": TIMESHARE_CAP}
        if i % 2:
            c["N"] = rng.randint(2, 8)
            argv += ["--N", str(c["N"])]
        queries.append(Query(f"timeshare_m{m}_{i}", argv, c, SHORT_REPEATS))
    queries.insert(len(queries) // 2, Query(
        "readme_duration_sweep", README_DURATION_SWEEP,
        {"type": "ts_sweep", "a": 3.3, "eps": 0.025, "p": 0.0, "cap": TIMESHARE_CAP}))
    warm = [
        ["timeshare", "--n", "1", "--a-star", "2.0", "--eps", "0.05", "--m", "2", "--N", "3"],
        README_DURATION_SWEEP[:-1] + ["1:2:1"],
    ]
    return Workload("timeshare_design", queries, warm)


WORKLOADS = {"mc_verify": mc_verify, "spectral_design": spectral_design,
             "timeshare_design": timeshare_design}
