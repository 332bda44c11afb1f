"""Time the simulation loops of two revisions side by side in one process.

    python3 tools/loop_pair.py

Run from the repository root.  The committed files of HEAD are exported
(``git archive``, as tools/bench_pair.py does) into a temporary directory
and its ``src/ratelim`` is imported as the package ``ratelim_base``; the
working tree's ``src/ratelim`` is imported as ``ratelim_change``.  Each
case runs once per side in each of REPS reps, interleaved, and which side
goes first alternates from rep to rep, so drift in the machine's speed
falls on both sides alike.  Separate processes cannot resolve a few
percent on a machine whose speed moves between runs; one process can.

Cases, each over orders 1-3, the four coefficient strategies and the loss
probabilities 0 (every flag received) and 0.2:
  scalar     run_closed_loop, TRIALS one-trial runs of STEPS steps; per trial step
  batch      run_closed_loop_batch, BATCH trials x STEPS steps
  timeshare  run_timeshare_loop_batch, BATCH trials x STEPS cycles at m = order
             (at loss 0 and m = 2 or 3 about a tenth of the trials converge early)
             Both batch cases pass one channel and one strategy whose seeds are uint64
             arrays, one entry a trial; a base revision whose batch loops still take a
             list of channels and a list of strategies needs these cases built as lists.
  narrow     cli.main simulate ... --out FILE at 1-4 scalar trials x STEPS steps (1 for
             nominal, 2 fixed_vertex, 3 iid_uniform, 4 greedy_adversarial), the shape
             of the benchmark's narrow Monte Carlo queries: draws, loop and CSV together

Per case it prints each side's median time and the median change/base time
ratio with its quartiles (below 1 means the change is faster).  After the
timed reps each narrow case runs REPS more times per side with Trial.draw and
the CSV writer wrapped in timers, and a second table splits its median time
into the draws, the CSV write and the rest (the loop and setup).  It is a
measuring tool, not a gate.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from bench_pair import _export

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("nominal", "fixed_vertex", "iid_uniform", "greedy_adversarial")
PLANTS = {  # order -> (a*, eps): no closed-loop trial passes a guard within STEPS steps at N = 4
    1: ((2.2,), (0.1,)),
    2: ((0.5, 2.2), (0.05, 0.05)),
    3: ((0.3, -0.4, 2.0), (0.05, 0.1, 0.05)),
}
LOSSES, LEVELS, STEPS, TRIALS, BATCH, REPS = (0.0, 0.2), 4, 400, 20, 200, 15


def _load(name: str, package: Path):
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _case(lib, family: str, order: int, kind: str, p: float, out: Path):
    """A no-argument callable that runs the case once on lib and returns the steps run
    (narrow: writes its CSV to out, and counts the query as 1)."""
    signs = (1,) if family == "timeshare" else (1, -1, 1)[:order]
    if family == "narrow":
        importlib.import_module(f"{lib.__name__}.cli")  # sets lib.cli
        a_star, eps = (",".join(map(repr, v)) for v in PLANTS[order])
        argv = ["simulate", "--n", str(order), "--a-star", a_star, "--eps", eps, "--p", str(p),
                "--N", str(LEVELS), "--steps", str(STEPS), "--seed", "5", "--strategy", kind,
                "--trials", str(1 + KINDS.index(kind)), "--out", str(out)]
        argv += ["--signs", ",".join(map(str, signs))] if kind == "fixed_vertex" else []

        def query() -> int:
            with contextlib.redirect_stdout(io.StringIO()):  # the verdict
                if lib.cli.main(argv) != 0:
                    raise SystemExit(f"error: {' '.join(argv)} failed")
            return 1
        return query
    index = np.arange(BATCH, dtype=np.uint64)
    channel = lib.ChannelConfig(p, 1000 + index)
    strategy = lib.ParamStrategy(kind, 2000 + index, signs)
    y0 = [lib.channel.uniform01(3000 + t, 0) - 0.5 for t in range(BATCH)]
    if family == "timeshare":
        cfg = lib.TimeShareConfig(a_star=-1.9 if order % 2 else 1.7, eps=0.04, m=order)
        run, quantizer = lib.timeshare.run_timeshare_loop_batch, lib.QuantizerSpec(3)
        return lambda: sum(len(y) for y, _, _ in run(cfg, quantizer, channel, strategy,
                                                      STEPS, y0))
    plant = lib.UncertainPlant(order, *PLANTS[order])
    quantizer = lib.QuantizerSpec(LEVELS)
    if family == "batch":
        run = lib.codec_loop.run_closed_loop_batch
        return lambda: sum(len(y) for y, _, _ in run(plant, quantizer, channel, strategy,
                                                      STEPS, y0))
    run = lib.run_closed_loop
    channels = [lib.ChannelConfig(p, 1000 + t) for t in range(TRIALS)]
    strategies = [lib.ParamStrategy(kind, 2000 + t, signs) for t in range(TRIALS)]
    return lambda: sum(len(run(plant, quantizer, channels[t], strategies[t], STEPS, y0[t]))
                       for t in range(TRIALS))


def _timed(fn) -> tuple[float, int]:
    start = perf_counter()
    steps = fn()
    return perf_counter() - start, steps


def _split(lib, run) -> tuple[float, float, float]:
    """One run of a narrow case: its time, and the time spent in Trial.draw and in the CSV
    writer, each wrapped in a timer for the run."""
    spent = {"draw": 0.0, "write": 0.0}

    def timer(key, fn):
        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                spent[key] += perf_counter() - start
        return wrapper

    trial, writer = lib.codec_loop.Trial, lib.cli.write_rows_csv
    draw = trial.draw
    trial.draw, lib.cli.write_rows_csv = timer("draw", draw), timer("write", writer)
    try:
        seconds, _ = _timed(run)
    finally:
        trial.draw, lib.cli.write_rows_csv = draw, writer
    return seconds, spent["draw"], spent["write"]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _export("HEAD", Path(tmp))
        sides = {"base": _load("ratelim_base", Path(tmp) / "src" / "ratelim"),
                 "change": _load("ratelim_change", ROOT / "src" / "ratelim")}
        cases = [(f, n, kind, p) for f in ("scalar", "batch", "timeshare", "narrow")
                 for n in (1, 2, 3) for kind in KINDS for p in LOSSES]
        runs = {case: {side: _case(lib, *case, Path(tmp) / f"{side}.csv")
                       for side, lib in sides.items()} for case in cases}
        times = {case: {"base": [], "change": []} for case in cases}
        for rep in range(REPS):
            for case in cases:
                order = ("base", "change") if rep % 2 == 0 else ("change", "base")
                for side in order:
                    seconds, steps = _timed(runs[case][side])
                    unit = steps if case[0] == "scalar" else 1  # scalar: per trial step
                    times[case][side].append(seconds / unit)
        narrow = [case for case in cases if case[0] == "narrow"]
        splits = {case: {side: [_split(sides[side], runs[case][side]) for _ in range(REPS)]
                         for side in sides} for case in narrow}
    print(f"{'case':<40} {'base':>10} {'change':>10} {'ratio':>7} {'q1':>7} {'q3':>7}")
    for case in cases:
        base, change = times[case]["base"], times[case]["change"]
        ratios = [c / b for b, c in zip(base, change)]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        scale, unit = (1e6, "us") if case[0] == "scalar" else (1e3, "ms")
        print(f"{f'{case[0]} n={case[1]} {case[2]} p={case[3]}':<40} "
              f"{scale * statistics.median(base):>8.2f}{unit} "
              f"{scale * statistics.median(change):>8.2f}{unit} "
              f"{statistics.median(ratios):>7.3f} {q1:>7.3f} {q3:>7.3f}", flush=True)
    print(f"\n{'narrow case, median ms':<40} {'side':>6} {'total':>7} {'draw':>7} {'write':>7} "
          f"{'rest':>7}")
    for case, by_side in splits.items():
        for side, rows in by_side.items():
            total, draw, write = (1e3 * statistics.median(col) for col in zip(*rows))
            rest = 1e3 * statistics.median(t - d - w for t, d, w in rows)
            print(f"{f'n={case[1]} {case[2]} p={case[3]}':<40} {side:>6} {total:>7.3f} "
                  f"{draw:>7.3f} {write:>7.3f} {rest:>7.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
