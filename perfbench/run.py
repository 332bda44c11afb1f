"""ratelim benchmark: closed-loop CLI queries, one client, in process.

    python3 perfbench/run.py --workload mc_verify --seed 0 --seconds 35 --trace 0

Run from the repository root (the program is imported from ``src/``).
One client issues one query (``ratelim.cli.main(argv)`` with ``--out`` to
a file under ``perfbench/out/``), waits for the answer, then sends the
next.  A round asks every query of the workload (short ones several
times, see ``Query.repeats``), after one untimed warm-up query of each
kind; rounds repeat until the next would overrun ``--seconds``.  Answers are checked after timing ends, against the
recorded reference (``reference.json``, default seed) and against the
properties each query was drawn with (any seed).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead.
The last stdout line is the JSON result; details, the environment and
(traced) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin the environment before numpy is imported, here and in child processes:
# the measured path is the default serial one (no RATELIM_THREADS pool), and
# BLAS may use at most one thread per core this process may run on.
NPROC = len(os.sched_getaffinity(0))
os.environ.pop("RATELIM_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _held = min(int(os.environ.get(_var, NPROC)), NPROC)
    except ValueError:
        _held = NPROC
    os.environ[_var] = str(max(_held, 1))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SPAWNS = 3  # per batch: one batch up front, one after each untraced round
TAIL_BEYOND = 10  # the tail percentile has at least this many queries above it
# The speed gauge (gauge_s) and the time it takes at the reference speed, its
# median on the machine the baseline in README.md was measured on.
GAUGE_STEPS = 2000
GAUGE_REF_S = 1.35e-3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = (
    "import time\n"
    "import ratelim.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter()))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import ratelim from this checkout's src/, never from elsewhere."""
    if not (SRC / "ratelim" / "cli.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'ratelim'} is missing")
    sys.path.insert(0, str(SRC))
    import ratelim.cli

    if Path(ratelim.cli.__file__).resolve().parent != (SRC / "ratelim").resolve():
        raise SystemExit(f"error: imported ratelim from {ratelim.cli.__file__}, not {SRC}")
    return ratelim.cli


# ------------------------------------------------------------------- set-up


def warm_bytecode() -> None:
    """One untimed import, so every timed start finds the bytecode caches written."""
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT, check=True,
                   capture_output=True)


def setup_seconds(spawns: int) -> list[float]:
    """Fresh interpreter start until ratelim.cli is imported and its parser built.

    CLOCK_MONOTONIC is shared across processes, so the child's clock
    reading at the end is comparable with the parent's before the spawn.
    """
    env = child_env()
    out = []
    for _ in range(spawns):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True)
        out.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return out


def import_times_ms(spawns: int) -> dict:
    """Medians of `python -X importtime` cumulative times for numpy and ratelim."""
    numpy_ms, ratelim_ms = [], []
    for _ in range(spawns):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ratelim.cli"],
                              env=child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True)
        cum = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2][1:].rstrip()  # one separator space, then the indent
                cum.setdefault(name, int(parts[1]))
        numpy_ms.append(next(v for k, v in cum.items() if k.strip() == "numpy") / 1e3)
        # top-level entries only (no indent): the package and then its cli module
        ratelim_ms.append(sum(v for k, v in cum.items() if k.startswith("ratelim")) / 1e3)
    return {"setup.numpy_import_ms": statistics.median(numpy_ms),
            "setup.ratelim_import_ms": statistics.median(ratelim_ms)}


# ------------------------------------------------------------------ queries


def ask(cli, argv: list[str], out_file: Path):
    """One query; returns (latency s, (exit code, payload, stdout, error)).

    ``cli.main`` is looked up per call so a traced round reaches the wrapper.
    """
    out_file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = cli.main(argv + ["--out", str(out_file)])
        except Exception as exc:  # a raised query is a failed query, counted below
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
    payload = out_file.read_bytes() if out_file.exists() else b""
    return latency, (code, payload, stdout.getvalue(), error)


def gauge_s() -> float:
    """One pass of a fixed pure-Python loop shaped like the program's inner loops.

    Tuples built and unpacked, a list used as a shift register, min/max
    and float arithmetic.  Its time tracks how fast the machine runs
    interpreter-bound code at the moment.
    """
    start = perf_counter()
    cells = [(0.0, 1.0)] * 4
    acc = 0.0
    for _ in range(GAUGE_STEPS):
        lo, hi = cells[0]
        cell = (lo * 0.5 - 0.25, hi * 0.5 + 0.25)
        cells.pop(0)
        cells.append(cell)
        acc += min(cell) + max(cell)
    return perf_counter() - start


def digest(raw) -> tuple:
    code, payload, stdout, error = raw
    return code, hashlib.sha256(payload).hexdigest(), stdout, error


def run_round(cli, queries, out_file: Path, tracer=None):
    """One round: pass k asks every query with more than k repeats.

    A gauge pass precedes every query.  Returns the round's speed scale
    (GAUGE_REF_S over its mean gauge time) and, per query, the raw
    latencies, the digests of the answers, and the first full answer.
    """
    latencies = [[] for _ in queries]
    digests = [[] for _ in queries]
    firsts = [None] * len(queries)
    gauges = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for k in range(max(q.repeats for q in queries)):
            for i, q in enumerate(queries):
                if k < q.repeats:
                    gauges.append(gauge_s())
                    latency, raw = ask(cli, q.argv, out_file)
                    latencies[i].append(latency)
                    digests[i].append(digest(raw))
                    if k == 0:
                        firsts[i] = raw
    return GAUGE_REF_S / statistics.fmean(gauges), latencies, digests, firsts


def per_query_means(rounds, scaled: bool = True) -> list[float]:
    """Each query's mean latency over its executions, at reference speed if scaled."""
    return [statistics.fmean(t * (r[1] if scaled else 1.0) for r in rounds for t in r[2][i])
            for i in range(len(rounds[0][2]))]


def timings(per_query: list[float]) -> dict:
    tail_s, _ = tail(per_query)
    return {"wall_s": sum(per_query), "query_p50_ms": 1e3 * statistics.median(per_query),
            "query_tail_ms": 1e3 * tail_s}


def end_to_end(rounds) -> dict:
    """wall_s as measured; query_p50_ms and query_tail_ms at reference speed.

    The gauge samples sit between queries, so they describe the machine's
    speed during the short queries, which set the two percentiles, and
    miss most of each long query, which sets wall_s.
    """
    scaled = timings(per_query_means(rounds))
    return dict(timings(per_query_means(rounds, scaled=False)),
                query_p50_ms=scaled["query_p50_ms"], query_tail_ms=scaled["query_tail_ms"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND queries above it: (value, percentile)."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# ------------------------------------------------------------------- checks


def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())["workloads"].get(name, {})


def problems_per_query(workload, answers, seed: int) -> list[list[str]]:
    """Wrong-answer findings for each query of one round."""
    reference = load_reference(workload.name)
    out = []
    for q, raw in zip(workload.queries, answers):
        answer = oracle.parse_answer(q.argv, *raw)
        found = oracle.check(q.check, answer)
        ref = reference.get(q.id)
        if ref is not None and ref["argv"] == q.argv:
            verdict_only = q.check.get("strategy") == oracle.VERDICT_ONLY_STRATEGY
            found += [f"reference: {m}" for m in oracle.compare(ref["answer"], answer, verdict_only)]
        elif seed == DEFAULT_SEED:
            found.append("reference: no recorded answer for this query; re-record")
        out.append(found)
    return out


# -------------------------------------------------------------- environment


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "ratelim_threads": os.environ.get("RATELIM_THREADS", "unset"),
    }


# -------------------------------------------------------------------- runs


def measure(cli, workload, seed: int, seconds: float, trace: bool, between_rounds=None) -> dict:
    """Warm up, run timed rounds, read peak RSS, then check every answer.

    Each query's latency is its mean over its executions in the untraced
    rounds; wall_s is the sum of those means.  For the two percentiles,
    each round's latencies are first scaled to reference speed by that
    round's gauge (README, "Reference speed").  The mean, not the median: on a shared machine whose speed
    flips between two levels, the median of a few executions jumps
    between the levels while the mean moves smoothly.  ``between_rounds``
    runs after each untraced round (set-up samples are spread over the
    run the same way).
    """
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"query-{os.getpid()}.out"
    try:
        warm_failures = []
        for argv in workload.warmups:
            _, (code, _, _, error) = ask(cli, argv, out_file)
            if code != 0:
                warm_failures.append(f"warm-up {argv[0]}: exit {code} {error or ''}".strip())
        modes = (False, True) if trace else (False,)
        rounds = []  # (traced, speed scale, latencies, answer digests, tracer or None)
        duration = {}
        deadline = perf_counter() + seconds
        while True:
            traced = modes[len(rounds) % len(modes)]
            tracer = tracing.Tracer() if traced else None
            started = perf_counter()
            scale, latencies, digests, firsts = run_round(cli, workload.queries, out_file, tracer)
            duration[traced] = perf_counter() - started
            if not rounds:
                base = firsts  # full answers are kept for the first round only
            rounds.append((traced, scale, latencies, digests, tracer))
            if between_rounds is not None and not traced:
                between_rounds()
            upcoming = modes[len(rounds) % len(modes)]
            if len(rounds) >= len(modes) and perf_counter() + duration[upcoming] > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        out_file.unlink(missing_ok=True)

    problems = problems_per_query(workload, base, seed)
    failures = list(warm_failures)
    failed = attempted = 0
    for r, (traced, _, _, digests, _) in enumerate(rounds):
        for q, p, executions, first in zip(workload.queries, problems, digests, base):
            for d in executions:
                attempted += 1
                if p or d != digest(first):
                    failed += 1
                    why = p if p else ["answer differs from its first execution"]
                    failures.append(f"round {r} ({'traced' if traced else 'untraced'}) "
                                    f"{q.id}: " + "; ".join(why))

    untraced = [r for r in rounds if not r[0]]
    per_query = per_query_means(untraced)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(rounds), "untraced_rounds": len(untraced),
        "queries_per_round": len(workload.queries),
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "tail_percentile": tail(per_query)[1],
        "end_to_end": dict(end_to_end(untraced), peak_rss_mb=peak_rss_mb),
        "raw_timings": timings(per_query_means(untraced, scaled=False)),
        "speed_scales": [r[1] for r in untraced], "failures": failures,
        "query_mean_ms": {q.id: 1e3 * t for q, t in zip(workload.queries, per_query)},
    }
    if trace:
        traced_rounds = [r for r in rounds if r[0]]
        per_round = [r[4].metrics() for r in traced_rounds]
        layer = {k: statistics.median(m[0][k] for m in per_round) for k in per_round[0][0]}
        layer["trace.overhead_frac"] = (
            end_to_end(traced_rounds)["wall_s"] / result["end_to_end"]["wall_s"] - 1.0)
        result["per_layer"] = layer
        result["ratio_bases"] = per_round[0][1]
        result["bindings_replaced"] = traced_rounds[0][4].bindings
        result["spans"] = traced_rounds[0][4].spans
    return result


def end_to_end_metrics(result: dict, setup: list[float]) -> dict:
    values = dict(result["end_to_end"], setup_s=statistics.median(setup))
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(result: dict, units: dict) -> dict:
    return {k: {"value": result["per_layer"][k], "unit": u} for k, u in units.items()}


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def benchmark(cli, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, write its details to perfbench/out/, print the report."""
    env = environment()
    setup, imports = [], {}
    if trace:
        imports = import_times_ms(3)
    else:
        warm_bytecode()
        setup += setup_seconds(SETUP_SPAWNS)
    result = measure(cli, workload, seed, seconds, trace,
                     None if trace else lambda: setup.extend(setup_seconds(SETUP_SPAWNS)))
    result["environment"] = env
    if trace:
        result["per_layer"].update(imports)
        metrics = per_layer_metrics(result, declared_units("per_layer"))
    else:
        result["setup_runs_s"] = setup
        metrics = end_to_end_metrics(result, setup)
    spans = result.pop("spans", None)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(result, metrics=metrics), indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": spans}))

    print(f"# {workload.name} seed={seed} rounds={result['rounds']} x "
          f"{result['queries_per_round']} queries; " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"ops_failed_frac = {result['ops_failed_frac']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if not trace:
        print(f"# query_tail_ms is p{result['tail_percentile']:.1f} of "
              f"{result['queries_per_round']} per-query latencies, each a mean over "
              f"{result['untraced_rounds']} rounds")
        scales = ", ".join(f"{x:.3f}" for x in result["speed_scales"])
        print(f"# query_p50_ms and query_tail_ms are at reference speed; speed scale per "
              f"round: {scales}; as measured: " + ", ".join(
                  f"{k} = {v:.6g}" for k, v in result["raw_timings"].items() if k != "wall_s"))
    for line in result["failures"][:20]:
        print(f"# FAIL {line}")
    line = {"correct": not result["failures"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    benchmark(cli, workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
