"""Per-layer tracing by wrapping ratelim's public functions from outside.

``Tracer.install`` replaces each listed function with a timing wrapper
under every name a ``ratelim.*`` module binds it to (``codec_loop.draw``
and ``timeshare.quantize`` are the same objects as ``channel.draw`` and
``codec_loop.quantize``), so calls between modules are timed too;
``uninstall`` puts the originals back.  Every wrapped call adds to its
function's call count and self time (its duration minus that of wrapped
calls inside it).  Calls at query, experiment, trial, build, solve,
search and sweep boundaries also leave a span (name, start, end, parent)
in memory; per-step functions run millions of times per round and keep
only the counts.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span kind or None for count-only per-step functions)
TRACED = (
    ("cli", "main", "query"),
    ("montecarlo", "run_experiment", "experiment"),
    ("montecarlo", "sweep", "sweep"),
    ("montecarlo", "sweep_timeshare", "sweep"),
    ("codec_loop", "run_closed_loop", "trial"),
    ("timeshare", "run_timeshare_loop", "trial"),
    ("mjls", "build_F", "build"),
    ("mjls", "spectral_radius", "solve"),
    ("mjls", "min_sufficient_N", "search"),
    ("mjls", "min_sufficient_level_real", "search"),
    ("timeshare", "min_feasible_average_level", "search"),
    ("limits", "necessary_bounds", None),
    ("timeshare", "kappa_bar", None),
    ("channel", "draw", None),
    ("interval", "scale_product", None),
    ("plant", "realize_params", None),
    ("plant", "step_unchecked", None),
    ("codec_loop", "quantize", None),
    ("codec_loop", "decode_cell", None),
    ("codec_loop", "predict", None),
    ("codec_loop", "control", None),
    ("codec_loop", "advance_scaling", None),
)
# Side of the lifted matrix -> plant order (size 2^n * n^2).
ORDER_BY_SIZE = {(1 << n) * n * n: n for n in range(1, 7)}
SEARCHES = ("mjls.min_sufficient_N", "mjls.min_sufficient_level_real")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.trial_steps = 0
        self.cycles = 0
        self.requested_steps = 0
        self.lifted_bytes = 0
        self.solve_s: dict[int, list[float]] = defaultdict(list)
        self.kappa_in_search = 0
        self.solves_in_search = 0
        self.bindings: list[str] = []
        self._stack: list[list] = []  # per open call: [child seconds, span id]
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, key: str, fn, span_kind):
        calls, self_s, errors, stack, spans = (
            self.calls, self.self_s, self.errors, self._stack, self.spans)
        after = getattr(self, "_after_" + key.replace(".", "_"), None)
        before = getattr(self, "_before_" + key.replace(".", "_"), None)

        def counted(*args, **kwargs):
            # per-step functions: as little work as self time allows
            frame = [0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[f"{key}:{type(exc).__name__}"] += 1
                raise
            finally:
                dur = perf_counter() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        def spanned(*args, **kwargs):
            token = before() if before else None
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, len(spans) if span_kind else None]
            if span_kind:
                spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[f"{key}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[key] += 1
                self_s[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span_kind:
                    spans[frame[1]] = (frame[1], f"{span_kind}:{key}", start, end, parent)
            if after:
                after(token, args, result, dur)
            return result

        wrapper = spanned if span_kind or before or after else counted
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Swap every binding of each traced function for its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ratelim" or name.startswith("ratelim."))]
        self.bindings = []
        for mod_name, fn_name, span_kind in TRACED:
            key = f"{mod_name}.{fn_name}"
            original = getattr(sys.modules[f"ratelim.{mod_name}"], fn_name)
            wrapper = self._wrap(key, original, span_kind)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        self.bindings.append(f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------- per-function hooks

    def _after_codec_loop_run_closed_loop(self, _token, _args, trace, _dur):
        self.trial_steps += len(trace)

    def _after_timeshare_run_timeshare_loop(self, _token, _args, trace, _dur):
        self.cycles += len(trace)

    def _after_montecarlo_run_experiment(self, _token, args, _report, _dur):
        exp = args[3]
        self.requested_steps += exp.trials * exp.steps

    def _after_mjls_build_F(self, _token, _args, model, _dur):
        self.lifted_bytes += model.lifted.nbytes

    def _after_mjls_spectral_radius(self, _token, args, _rho, dur):
        self.solve_s[ORDER_BY_SIZE.get(len(args[0]), 0)].append(dur)

    def _search_start(self):
        return self.calls["mjls.spectral_radius"]

    def _search_end(self, start, _args, _result, _dur):
        self.solves_in_search += self.calls["mjls.spectral_radius"] - start

    _before_mjls_min_sufficient_N = _search_start
    _before_mjls_min_sufficient_level_real = _search_start
    _after_mjls_min_sufficient_N = _search_end
    _after_mjls_min_sufficient_level_real = _search_end

    def _before_timeshare_min_feasible_average_level(self):
        return self.calls["timeshare.kappa_bar"]

    def _after_timeshare_min_feasible_average_level(self, start, _args, _result, _dur):
        self.kappa_in_search += self.calls["timeshare.kappa_bar"] - start

    # ------------------------------------------------------------ metrics

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer values, and the base of every ratio among them."""
        c, s = self.calls, self.self_s
        out: dict[str, float] = {}
        for mod_name, fn_name, _ in TRACED:
            key = f"{mod_name}.{fn_name}"
            out[f"{key}.calls"] = c[key]
            if key not in ("timeshare.kappa_bar", "cli.main"):
                out[f"{key}.self_s"] = s[key]
        inclusive = _inclusive(self.spans, "trial:codec_loop.run_closed_loop")
        out["codec_loop.trial_steps"] = self.trial_steps
        out["codec_loop.us_per_trial_step"] = (
            1e6 * inclusive / self.trial_steps if self.trial_steps else 0.0)
        out["codec_loop.errors"] = self.errors["codec_loop.quantize:SaturationError"]
        out["montecarlo.step_fill"] = (
            (self.trial_steps + self.cycles) / self.requested_steps if self.requested_steps else 0.0)
        out["timeshare.cycles"] = self.cycles
        searches = c["timeshare.min_feasible_average_level"]
        out["timeshare.kappa_bar_per_search"] = self.kappa_in_search / searches if searches else 0.0
        out["mjls.lifted_mb"] = self.lifted_bytes / 1e6
        for n in range(1, 7):
            times = self.solve_s.get(n)
            out[f"mjls.solve_ms.n{n}"] = 1e3 * statistics.median(times) if times else 0.0
        mjls_searches = sum(c[k] for k in SEARCHES)
        out["mjls.solves_per_search"] = (
            self.solves_in_search / mjls_searches if mjls_searches else 0.0)
        out["cli.main.self_ms_per_call"] = 1e3 * s["cli.main"] / c["cli.main"] if c["cli.main"] else 0.0
        bases = {
            "codec_loop.us_per_trial_step": f"{self.trial_steps} trial steps",
            "montecarlo.step_fill": f"{self.requested_steps} trial steps requested",
            "timeshare.kappa_bar_per_search": f"{searches} searches",
            "mjls.solves_per_search": f"{mjls_searches} searches",
            "cli.main.self_ms_per_call": f"{c['cli.main']} calls",
        }
        bases.update({f"mjls.solve_ms.n{n}": f"{len(self.solve_s.get(n, ()))} solves"
                      for n in range(1, 7)})
        return out, bases


def _inclusive(spans, name: str) -> float:
    return sum(end - start for _, span_name, start, end, _ in spans if span_name == name)
