"""Command-line front end.

Subcommands: bounds, sufficient, simulate, sweep, timeshare.  timeshare
answers one cycle duration; sweep --var m is the table over durations.
Exit codes: 0 success, 2 invalid input, 3 internal invariant breach
(quantizer saturation).  One rule, _refuse_unread, exits 2 on a flag that the
command does not read in its mode, given at any value, naming it and the flag
that set the mode (--min-n, --var, --strategy or --empirical).  A flat key=value
config file can stand in for flags via --config, each entry a given flag; flags
after it override its entries.  Each command returns its answer (JSON or CSV
rows) and main writes it to --out or stdout; the simulate verdict goes to
stdout with --out, else to stderr.  JSON output maps non-finite numbers to null
and carries an explicit feasible flag instead.  The parser is built once per
process and names each subcommand's cmd_* function, which main looks up on
every call, so main may be called many times in one process and each answer
depends only on its argv.  Each value is checked once, by the type that holds
it: UncertainPlant checks the plant flags and its message is the refusal's (the
time-share paths add only that --n is 1).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .channel import ChannelConfig
from .codec_loop import QuantizerSpec, SaturationError
from .limits import martins_bound, necessary_bounds, phat_bound, you_bounds
from .mjls import PowerIterationError, min_sufficient_N, sufficient_mss
from .montecarlo import (
    Experiment,
    run_experiment,
    sweep,
    sweep_timeshare,
    write_rows_csv,
)
from .plant import ParamStrategy, UncertainPlant
from .timeshare import TimeShareConfig, kappa_bar


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _signs(text: str) -> tuple[int, ...]:
    table = {"+": 1, "-": -1, "1": 1, "-1": -1, "0": 0}
    try:
        return tuple(table[t.strip()] for t in text.split(","))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"bad sign pattern {text!r}") from exc


# Longest grid a --range may expand to.
MAX_GRID_POINTS = 10_000


def _range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise argparse.ArgumentTypeError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    out = []
    v = lo
    while v <= hi + step * 1e-9:
        if len(out) == MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"range {text!r} has more than {MAX_GRID_POINTS} points"
            )
        point = float(f"{v:.12g}")  # 12 significant digits, at any magnitude
        if out and point == out[-1]:
            raise argparse.ArgumentTypeError(
                f"range {text!r}: step {step!r} is below the 12 significant digits kept at {point!r}"
            )
        out.append(point)
        following = lo + len(out) * step  # not a running sum, which gathers rounding
        if following == v:  # v cannot move, so it is the last point and must not fall short of hi
            if v < hi:
                raise argparse.ArgumentTypeError(
                    f"range {text!r}: step {step!r} is below the spacing of doubles at {v!r}"
                )
            break
        v = following
    return out


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(payload: dict, stream) -> None:
    stream.write(json.dumps({k: _jsonable(v) for k, v in payload.items()}, indent=2))
    stream.write("\n")


# The documented default of each flag that a command reads only in some modes.  The parser
# leaves these flags None, so that a flag given at any value, its default too, counts as given.
DEFAULTS = dict(y0_bound=1.0, trials=100, steps=400, seed=0, strategy="iid_uniform", n_max=4096)


def _read(args, dest: str):
    """The value of dest's flag, or its default where the flag was not given (or not declared)."""
    value = getattr(args, dest, None)
    return DEFAULTS[dest] if value is None else value


def _plant_from(args) -> UncertainPlant:
    return UncertainPlant(n=args.n, a_star=tuple(args.a_star), eps=tuple(args.eps),
                          y0_bound=_read(args, "y0_bound"))


def _scalar_plant_from(args, what: str) -> tuple[float, float, float]:
    """(a*, eps, Y0) of the plant, which the time-share paths take only at order 1."""
    plant = _plant_from(args)
    if plant.n != 1:
        raise ValueError(f"{what} needs a scalar plant, got --n {plant.n}")
    return plant.a_star[0], plant.eps[0], plant.y0_bound


def _refuse_unread(args, mode: str, *dests: str) -> None:
    """Exit 2 on the first of dests whose flag was given: the command does not read it in mode."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:  # absent: None, or False for a switch
            raise ValueError(f"--{dest.replace('_', '-')} is not read {mode}")


def _experiment_from(args, **extra) -> Experiment:
    kind = _read(args, "strategy")
    if kind != "fixed_vertex":
        _refuse_unread(args, f"with --strategy {kind}", "signs")
    strategy = ParamStrategy(kind=kind, signs=args.signs)  # seeded per trial
    return Experiment(trials=_read(args, "trials"), steps=_read(args, "steps"),
                      base_seed=_read(args, "seed"), strategy=strategy, **extra)


def _add_plant_flags(sp, loop: bool) -> None:
    sp.add_argument("--n", type=int, required=True, help="plant order")
    sp.add_argument("--a-star", type=_floats, required=True, help="nominal coefficients a1*,...,an*")
    sp.add_argument("--eps", type=_floats, required=True, help="uncertainty radii eps1,...,epsn")
    if loop:  # only a simulated loop starts from an output
        sp.add_argument("--y0-bound", type=float, default=None, help="initial output bound Y0")


def _add_loss_flag(sp) -> None:
    sp.add_argument("--p", type=float, default=0.0, help="packet loss probability")


def _add_trial_flags(sp) -> None:
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--strategy", choices=ParamStrategy.KINDS, default=None)
    sp.add_argument("--signs", type=_signs, default=None, help="vertex signs, e.g. +,-")


def _add_answer(sp, cmd) -> None:
    """--out, the last flag of every command, and the name (so a rebound cmd_* takes effect)
    of the command whose answer main writes there."""
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd.__name__)


def cmd_bounds(args) -> dict:
    plant = _plant_from(args)
    lam = abs(plant.a_star[-1])
    nb = necessary_bounds(lam, plant.eps[-1], args.p)
    yb = you_bounds(lam, args.p)
    return {
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


def cmd_sufficient(args) -> dict:
    plant = _plant_from(args)
    if args.min_n:
        _refuse_unread(args, "with --min-n", "N")
        found = min_sufficient_N(plant, args.p, n_max=_read(args, "n_max"))
        return {"n": plant.n, "p": args.p, "min_N": found.level, "rho": found.rho,
                "sufficient": found.level is not None}
    _refuse_unread(args, "without --min-n", "n_max")
    if args.N is None:
        raise ValueError("sufficient needs --N or --min-n")
    result = sufficient_mss(plant, args.N, args.p)  # theta refuses an --N below 2
    return {"n": plant.n, "N": args.N, "p": args.p, "rho": result.rho,
            "sufficient": result.sufficient}


def cmd_simulate(args) -> tuple[list, dict]:
    """The decay table (DecayReport.rows) and, apart from it, the verdict."""
    exp = _experiment_from(args, tol_slope=args.tol_slope)
    channel = ChannelConfig(args.p)
    if args.m is not None:
        a, e, y0 = _scalar_plant_from(args, "time-sharing simulation")
        target = TimeShareConfig(a_star=a, eps=e, m=args.m, y0_bound=y0)
    else:
        target = _plant_from(args)
    report = run_experiment(target, QuantizerSpec(args.N), channel, exp)
    keys = ("verdict", "slope", "diverged_trials", "converged_trials")
    return report.rows(), {key: getattr(report, key) for key in keys}


def cmd_sweep(args) -> list[dict]:
    if args.var in ("N", "m"):  # the grid sets the level, or a search finds it
        _refuse_unread(args, f"with --var {args.var}", "N")
    if args.var == "m" or not args.empirical:  # no loop runs
        _refuse_unread(args, "with --var m" if args.var == "m" else "without --empirical",
                       "empirical", "y0_bound", "trials", "steps", "seed", "strategy", "signs")
    if args.var == "m":
        a, e, _ = _scalar_plant_from(args, "a duration sweep")
        durations = [int(v) for v in args.range]
        if durations != args.range:
            raise ValueError("cycle durations must be integers; give an integer lo:hi:step grid")
        return sweep_timeshare(a, e, durations, channel_p=args.p)
    if args.empirical and args.var != "N" and args.N is None:
        raise ValueError(f"--empirical with --var {args.var} needs --N")
    plant = _plant_from(args)
    empirical = _experiment_from(args) if args.empirical else None
    return sweep(plant, args.var, args.range, channel_p=args.p, n_levels=args.N, empirical=empirical)


def cmd_timeshare(args) -> dict:
    a, e, _ = _scalar_plant_from(args, "time-sharing analysis")
    # before the search, so that a bad --N is refused first
    kbar = None if args.N is None else kappa_bar(TimeShareConfig(a, e, args.m), args.N, args.p)
    row = sweep_timeshare(a, e, [args.m], channel_p=args.p)[0]
    payload = {key: None if value == "" else value for key, value in row.items()}
    payload["kappa_bar"] = kbar
    return payload


@functools.cache  # built on first use, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratelim",
        description="Rate and loss limits for quantized control over lossy channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="necessary rate/loss bounds")
    _add_plant_flags(sp, loop=False)
    _add_loss_flag(sp)
    _add_answer(sp, cmd_bounds)

    sp = sub.add_parser("sufficient", help="spectral-radius sufficiency test")
    _add_plant_flags(sp, loop=False)
    _add_loss_flag(sp)
    sp.add_argument("--N", type=int, default=None, help="quantizer levels (integer >= 2)")
    sp.add_argument("--min-n", action="store_true", help="search the smallest sufficient N")
    sp.add_argument("--n-max", type=int, default=None, help="search cap for --min-n")
    _add_answer(sp, cmd_sufficient)

    sp = sub.add_parser("simulate", help="Monte Carlo closed-loop trials")
    _add_plant_flags(sp, loop=True)
    _add_loss_flag(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="time-share cycle duration (scalar plants)")
    _add_trial_flags(sp)
    sp.add_argument("--tol-slope", type=float, default=1e-3)
    _add_answer(sp, cmd_simulate)

    sp = sub.add_parser("sweep", help="grid sweep over lambda, p, N, or m")
    _add_plant_flags(sp, loop=True)
    _add_loss_flag(sp)
    sp.add_argument("--N", type=float, default=None)
    sp.add_argument("--var", choices=("lambda", "p", "N", "m"), required=True)
    sp.add_argument("--range", type=_range, required=True, help="lo:hi:step")
    sp.add_argument("--empirical", action="store_true", help="add a Monte Carlo verdict column")
    _add_trial_flags(sp)
    _add_answer(sp, cmd_sweep)

    sp = sub.add_parser("timeshare", help="time-sharing limits at one cycle duration")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--a-star", type=_floats, required=True)
    sp.add_argument("--eps", type=_floats, required=True)
    _add_loss_flag(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--N", type=float, default=None, help="per-slot level for kappa_bar")
    _add_answer(sp, cmd_timeshare)

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace --config PATH with the flags read from the file, in place.

    The file holds one key=value per line (keys are long flag names
    without the leading dashes); later command-line flags override.
    """
    out: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        if tok != "--config":
            out.append(tok)
            continue
        path = next(tokens, None)
        if path is None:
            raise ValueError("--config needs a path")
        with open(path) as fh:
            for line in map(str.strip, fh):
                if not line or line.startswith("#"):
                    continue
                key, _, value = (part.strip() for part in line.partition("="))
                if not key or not value:
                    raise ValueError(f"bad config line: {line!r}")
                out.extend([f"--{key}", value])
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(list(argv)))
        answer, verdict = globals()[args.func](args), None
        if isinstance(answer, tuple):  # simulate: the decay rows and the verdict
            answer, verdict = answer
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            (_emit_json if isinstance(answer, dict) else write_rows_csv)(answer, out)
        if verdict is not None:  # never on the stream that carries the rows
            _emit_json(verdict, sys.stdout if args.out else sys.stderr)
        return 0
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code) if exc.code else 0
    except SaturationError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: input is out of floating-point range", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
