"""Record before/after benchmark pairs into BENCH_<pr>.json.

    python3 tools/bench_pair.py --pr N --pairs spectral_design=10 \
        --pairs mc_verify=10 --pairs timeshare_design=3

Run from the repository root.  The committed files of HEAD are exported
(``git archive``) into a temporary directory as the base; the change is
the working tree.  For each workload, k pairs of
``python3 perfbench/run.py --workload W --trace 0`` runs alternate between
the two checkouts, so the benchmark's own seed and run length apply, and
which side goes first alternates from pair to pair, so drift in the
machine's speed falls on both sides alike.  Every result line goes into
the output file, next to the machine (core count, CPU model, Python,
numpy, BLAS), both revisions and, per workload and metric, each side's
median and the base's quartiles, and how many pairs the change won and
lost in the direction BENCHMARK.json calls better (ties count for
neither), so a "better in nine of ten pairs" rule reads off the file.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _environment() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.environment()


def _run(checkout: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _better() -> dict[str, str]:
    """Each metric's better direction ("lower" or "higher"), from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def _summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median, the base's quartiles, and the
    pairs the change won and lost in the metric's better direction (ties count for
    neither side)."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        metrics = mine[0]["result"]["metrics"]
        out[workload] = {}
        for name in metrics:
            side = {s: {r["pair"]: r["result"]["metrics"][name]["value"]
                        for r in mine if r["side"] == s} for s in ("base", "change")}
            base = list(side["base"].values())
            base_q = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
            sign = 1.0 if better[name] == "lower" else -1.0
            gains = [sign * (b - side["change"][pair]) for pair, b in side["base"].items()]
            out[workload][name] = {
                "base_median": statistics.median(base),
                "change_median": statistics.median(side["change"].values()),
                "base_q1": base_q[0],
                "base_q3": base_q[2],
                "pairs_won": sum(g > 0 for g in gains),
                "pairs_lost": sum(g < 0 for g in gains),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=K")
    args = parser.parse_args(argv)
    plan = [(w, int(k)) for w, _, k in (p.partition("=") for p in args.pairs)]
    record = {
        "base": _git("rev-parse", "HEAD"),
        "change": "working tree over the base",
        "environment": _environment(),
        "runs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _export("HEAD", base)
        for workload, pairs in plan:
            for pair in range(pairs):
                sides = [("base", base), ("change", ROOT)]
                for order, (side, checkout) in enumerate(sides if pair % 2 == 0 else sides[::-1]):
                    result = _run(checkout, workload)
                    record["runs"].append({"workload": workload, "pair": pair, "side": side,
                                           "order": order, "result": result})
                    print(json.dumps(record["runs"][-1]), flush=True)
    record["summary"] = _summary(record["runs"], _better())
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
