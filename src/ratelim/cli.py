"""Command-line front end.

Subcommands: bounds, sufficient, simulate, sweep, timeshare.  Exit codes:
0 success, 2 invalid input, 3 internal invariant breach (quantizer
saturation).  A flat key=value config file can stand in for flags via
--config; flags given after it override its entries.  JSON output maps
non-finite numbers to null and carries an explicit feasible flag instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .channel import ChannelConfig
from .codec_loop import QuantizerSpec, SaturationError
from .limits import martins_bound, necessary_bounds, phat_bound, you_bounds
from .mjls import min_sufficient_N, sufficient_mss
from .montecarlo import (
    Experiment,
    run_experiment,
    sweep,
    sweep_timeshare,
    write_rows_csv,
)
from .plant import ParamStrategy, UncertainPlant
from .timeshare import (
    TimeShareConfig,
    deltas,
    kappa_bar,
    lossless_bound,
    min_feasible_average_level,
)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _signs(text: str) -> tuple[int, ...]:
    table = {"+": 1, "-": -1, "1": 1, "-1": -1, "0": 0}
    try:
        return tuple(table[t.strip()] for t in text.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"bad sign pattern {text!r}") from exc


def _range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    out = []
    v = lo
    while v <= hi + step * 1e-9:
        out.append(round(v, 12))
        v += step
    return out


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(payload: dict, stream) -> None:
    stream.write(json.dumps({k: _jsonable(v) for k, v in payload.items()}, indent=2))
    stream.write("\n")


def _plant_from(args) -> UncertainPlant:
    a = args.a_star
    e = args.eps
    if args.n != len(a) or args.n != len(e):
        raise ValueError(
            f"--n {args.n} does not match {len(a)} coefficients / {len(e)} radii"
        )
    return UncertainPlant(
        n=args.n, a_star=tuple(a), eps=tuple(e), y0_bound=args.y0_bound
    )


def _strategy_from(args) -> ParamStrategy:
    return ParamStrategy(kind=args.strategy, seed=args.seed, signs=args.signs)


def _out_stream(args):
    if args.out:
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


def _add_plant_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True, help="plant order")
    sp.add_argument("--a-star", type=_floats, required=True, help="nominal coefficients a1*,...,an*")
    sp.add_argument("--eps", type=_floats, required=True, help="uncertainty radii eps1,...,epsn")
    sp.add_argument("--y0-bound", type=float, default=1.0, help="initial output bound Y0")


def cmd_bounds(args) -> int:
    plant = _plant_from(args)
    lam = abs(plant.a_star[-1])
    nb = necessary_bounds(lam, plant.eps[-1], args.p)
    yb = you_bounds(lam, args.p)
    payload = {
        "r_nec0": nb.r_nec0,
        "r_nec1": nb.r_nec1,
        "r_nec": nb.r_nec,
        "p_nec": nb.p_nec,
        "r_you": yb.r_y,
        "p_you": yb.p_y,
        "r_phat": phat_bound(lam, plant.eps[0]) if plant.n == 1 else None,
        "r_martins": martins_bound(lam, plant.eps[0]) if plant.n == 1 else None,
        "feasible": nb.feasible,
    }
    with _out_stream(args) as out:
        _emit_json(payload, out)
    return 0


def cmd_sufficient(args) -> int:
    plant = _plant_from(args)
    if args.min_n:
        found = min_sufficient_N(plant, args.p, n_max=args.n_max)
        payload = {
            "n": plant.n,
            "p": args.p,
            "min_N": found.level,
            "rho": found.rho,
            "sufficient": found.level is not None,
        }
    else:
        if args.N is None or args.N < 2:
            raise ValueError("--N must be an integer >= 2 (or use --min-n)")
        result = sufficient_mss(plant, args.N, args.p)
        payload = {
            "n": plant.n,
            "N": args.N,
            "p": args.p,
            "rho": result.rho,
            "sufficient": result.sufficient,
        }
    with _out_stream(args) as out:
        _emit_json(payload, out)
    return 0


def cmd_simulate(args) -> int:
    strategy = _strategy_from(args)
    exp = Experiment(
        trials=args.trials,
        steps=args.steps,
        base_seed=args.seed,
        strategy=strategy,
        tol_slope=args.tol_slope,
    )
    channel = ChannelConfig(p=args.p, seed=args.seed)
    if args.m is not None:
        if args.n != 1:
            raise ValueError("time-sharing simulation needs a scalar plant (--n 1)")
        target = TimeShareConfig(
            a_star=args.a_star[0],
            eps=args.eps[0],
            m=args.m,
            levels=args.N,
            p=args.p,
            y0_bound=args.y0_bound,
        )
        report = run_experiment(target, None, channel, exp)
    else:
        plant = _plant_from(args)
        report = run_experiment(plant, QuantizerSpec(args.N), channel, exp)
    verdict = {
        "verdict": report.verdict,
        "slope": report.slope,
        "diverged_trials": report.diverged_trials,
        "converged_trials": report.converged_trials,
    }
    if args.out:
        with open(args.out, "w") as out:
            report.to_csv(out)
        _emit_json(verdict, sys.stdout)
    else:
        report.to_csv(sys.stdout)
        _emit_json(verdict, sys.stderr)
    return 0


def _duration_table(args, grid) -> int:
    """Time-share table over durations: `sweep --var m` and `timeshare --sweep-m`."""
    if args.n != 1:
        raise ValueError("duration sweeps need a scalar plant (--n 1)")
    rows = sweep_timeshare(args.a_star[0], args.eps[0], [int(v) for v in grid], channel_p=args.p)
    with _out_stream(args) as out:
        write_rows_csv(rows, out)
    return 0


def cmd_sweep(args) -> int:
    if args.var == "m":
        return _duration_table(args, args.range)
    plant = _plant_from(args)
    empirical = None
    if args.empirical:
        empirical = Experiment(
            trials=args.trials,
            steps=args.steps,
            base_seed=args.seed,
            strategy=_strategy_from(args),
        )
    rows = sweep(
        plant,
        args.var,
        args.range,
        channel_p=args.p,
        n_levels=args.N,
        channel_seed=args.seed,
        empirical=empirical,
    )
    with _out_stream(args) as out:
        write_rows_csv(rows, out)
    return 0


def cmd_timeshare(args) -> int:
    if args.sweep_m:
        return _duration_table(args, args.sweep_m)
    if args.n != 1:
        raise ValueError("time-sharing analysis is defined for scalar plants (--n 1)")
    if args.m is None:
        raise ValueError("need --m (or --sweep-m lo:hi:step)")
    a, e = args.a_star[0], args.eps[0]
    levels = 1.0 if args.N is None else args.N
    cfg = TimeShareConfig(a_star=a, eps=e, m=args.m, levels=levels, p=args.p)  # validates first
    dp, dm = deltas(a, e, args.m)
    r_bar, feasible = lossless_bound(a, e, args.m)
    found = min_feasible_average_level(a, e, args.p, args.m)
    kbar = None if args.N is None else kappa_bar(cfg)
    payload = {
        "m": args.m,
        "delta_plus": dp,
        "delta_minus": dm,
        "kappa_bar": kbar,
        "r_bar": r_bar,
        "feasible": feasible,
        "min_total_level": found[0] if found else None,
        "avg_level": found[1] if found else None,
    }
    with _out_stream(args) as out:
        _emit_json(payload, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratelim",
        description="Rate and loss limits for quantized control over lossy channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="necessary rate/loss bounds")
    _add_plant_flags(sp)
    sp.add_argument("--p", type=float, default=0.0, help="packet loss probability")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sufficient", help="spectral-radius sufficiency test")
    _add_plant_flags(sp)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--N", type=int, default=None, help="quantizer levels (integer >= 2)")
    sp.add_argument("--min-n", action="store_true", help="search the smallest sufficient N")
    sp.add_argument("--n-max", type=int, default=4096, help="search cap for --min-n")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sufficient)

    sp = sub.add_parser("simulate", help="Monte Carlo closed-loop trials")
    _add_plant_flags(sp)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="time-share cycle duration (scalar plants)")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", choices=ParamStrategy.KINDS, default="iid_uniform")
    sp.add_argument("--signs", type=_signs, default=None, help="vertex signs, e.g. +,-")
    sp.add_argument("--tol-slope", type=float, default=1e-3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="grid sweep over lambda, p, N, or m")
    _add_plant_flags(sp)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--N", type=float, default=None)
    sp.add_argument("--var", choices=("lambda", "p", "N", "m"), required=True)
    sp.add_argument("--range", type=_range, required=True, help="lo:hi:step")
    sp.add_argument("--empirical", action="store_true", help="add a Monte Carlo verdict column")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", choices=ParamStrategy.KINDS, default="iid_uniform")
    sp.add_argument("--signs", type=_signs, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("timeshare", help="time-sharing protocol limits")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--a-star", type=_floats, required=True)
    sp.add_argument("--eps", type=_floats, required=True)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--N", type=float, default=None, help="per-slot level for kappa_bar")
    sp.add_argument("--sweep-m", type=_range, default=None, help="lo:hi:step over durations")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_timeshare)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace --config PATH with the flags read from the file, in place.

    The file holds one key=value per line (keys are long flag names
    without the leading dashes); later command-line flags override.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a path")
            with open(argv[i + 1]) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, _, value = line.partition("=")
                    key = key.strip()
                    value = value.strip()
                    if not key or not value:
                        raise ValueError(f"bad config line: {line!r}")
                    out.extend([f"--{key}", value])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(list(argv)))
        return args.func(args)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code) if exc.code else 0
    except SaturationError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: input is out of floating-point range", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
