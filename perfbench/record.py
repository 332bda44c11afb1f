"""Record the default-seed reference answers into perfbench/reference.json.

    python3 perfbench/record.py

Runs every query of every workload once at the default seed, refuses to
record if any answer breaks the property it was drawn with, and
cross-checks every spectral radius the program reports (orders 5 and 6
included) against the maximum eigenvalue modulus of the benchmark's own
dense lifted matrix.  Re-record only when the program's answers are
meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # pins the environment before numpy loads
import oracle
import workloads


def spectral_radii(check: dict, answer: dict):
    """(a, eps, level, p, reported rho) for every radius in one answer."""
    if check["type"] == "rho":
        yield check["a"], check["eps"], check["N"], check["p"], answer["fields"]["rho"]
    elif check["type"] == "min_n":
        f = answer["fields"]
        yield check["a"], check["eps"], f["min_N"], check["p"], f["rho"]


def main() -> int:
    cli = run.import_program()
    out_file = run.OUT / "record.out"
    run.OUT.mkdir(exist_ok=True)
    recorded, worst, problems = {}, 0.0, []
    for name, make in workloads.WORKLOADS.items():
        workload = make(run.DEFAULT_SEED)
        entries = {}
        for q in workload.queries:
            _, raw = run.ask(cli, q.argv, out_file)
            answer = oracle.parse_answer(q.argv, *raw)
            problems += [f"{name}/{q.id}: {m}" for m in oracle.check(q.check, answer)]
            for a, eps, level, p, got in spectral_radii(q.check, answer):
                dense = oracle.rho(a, eps, level, p)
                rel = abs(got - dense) / dense
                worst = max(worst, rel)
                if rel > oracle.ITER_REL:
                    problems.append(f"{name}/{q.id}: rho {got!r} vs eigvals {dense!r}")
            entries[q.id] = {"argv": q.argv, "answer": answer}
            print(f"{name}/{q.id}: exit {answer['exit']}", file=sys.stderr)
        recorded[name] = entries
    out_file.unlink(missing_ok=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    Path(run.REFERENCE).write_text(json.dumps({
        "seed": run.DEFAULT_SEED,
        "environment": run.environment(),
        "rho_vs_dense_eigvals_max_rel": worst,
        "workloads": recorded,
    }, indent=1) + "\n")
    print(f"recorded {run.REFERENCE}; worst rho vs eigvals relative gap {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
