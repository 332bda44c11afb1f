"""Self-test of the benchmark on tiny query sets.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit
(both trace modes, every workload), that an injected wrong answer and an
injected exception are each counted as failed queries, and that the
diverging mc_verify configuration stops before its horizon.  Takes about
half a minute; it needs the checkout's src/ like run.py does.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from dataclasses import replace

import run  # pins the environment before numpy loads
import oracle
import tracing
import workloads

SEED = 1  # not the default seed: trimmed queries have no recorded reference


def _with_trials(query, trials: int):
    argv = list(query.argv)
    argv[argv.index("--trials") + 1] = str(trials)
    return replace(query, argv=argv)


def _with_range(query, text: str):
    argv = list(query.argv)
    argv[argv.index("--range") + 1] = text
    return replace(query, argv=argv)


def tiny(name: str) -> workloads.Workload:
    """A few cheap queries of every kind the workload has."""
    full = workloads.WORKLOADS[name](SEED)
    by_id = {q.id: q for q in full.queries}
    if name == "mc_verify":
        picked = [q for q in full.queries if q.id.startswith("narrow_")][:4]
        picked += [_with_trials(by_id[i], 2) for i in ("timeshare_m2", "diverging")]
    elif name == "spectral_design":
        first = {}
        for q in full.queries:
            first.setdefault(q.id.rsplit("_", 1)[0], q)
        picked = [first[k] for k in ("sufficient_n1", "sufficient_n4", "bounds_n2",
                                     "bounds_n1", "min_n_n3", "sufficient_n5")]
        picked.append(_with_range(by_id["readme_lambda_sweep"], "1.5:1.6:0.05"))
    else:
        picked = [q for q in full.queries if q.id.startswith("timeshare_m")][:3]
        picked.append(_with_range(by_id["readme_duration_sweep"], "1:3:1"))
    return replace(full, queries=picked)


def benchmark_quietly(cli, workload, trace: bool):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        line = run.benchmark(cli, workload, SEED, 0.0, trace)
    return line, stdout.getvalue()


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_program()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.declared = {
            False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def test_every_metric_printed_with_its_unit(self):
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    line, text = benchmark_quietly(self.cli, tiny(name), trace)
                    self.assertTrue(line["correct"], text)
                    self.assertEqual(line["failed"], 0)
                    last = json.loads(text.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, self.declared[trace])
                    for metric, unit in got.items():
                        self.assertIn(f"\n{metric} = ", text)
                        self.assertIsInstance(last["metrics"][metric]["value"], (int, float))
                    self.assertIn("ops_failed_frac = 0 ratio", text)

    def _failed_with(self, attr: str, replacement):
        workload = tiny("spectral_design")
        saved = getattr(self.cli, attr)
        setattr(self.cli, attr, replacement)
        try:
            result = run.measure(self.cli, workload, SEED, 0.0, False)
        finally:
            setattr(self.cli, attr, saved)
        return workload, result

    def test_injected_wrong_answer_is_counted(self):
        original = self.cli.you_bounds

        def off_by_a_little(lam, p):
            right = original(lam, p)
            return right._replace(r_y=right.r_y * (1.0 + 1e-6))

        workload, result = self._failed_with("you_bounds", off_by_a_little)
        wrong = sum(q.repeats for q in workload.queries if q.argv[0] == "bounds")
        self.assertEqual(result["failed"], wrong)
        self.assertEqual(result["ops_failed_frac"], wrong / sum(q.repeats for q in workload.queries))
        self.assertTrue(any("r_you" in f for f in result["failures"]))

    def test_injected_exception_is_counted(self):
        def boom(args):
            raise RuntimeError("injected")

        workload, result = self._failed_with("cmd_bounds", boom)
        raised = sum(q.repeats for q in workload.queries if q.argv[0] == "bounds")
        self.assertEqual(result["failed"], raised)
        self.assertEqual(result["ops_failed_frac"], raised / sum(q.repeats for q in workload.queries))
        self.assertTrue(any("RuntimeError: injected" in f for f in result["failures"]))

    def test_unstable_configuration_diverges_early(self):
        query = next(q for q in tiny("mc_verify").queries if q.id == "diverging")
        out_file = run.OUT / "selftest.out"
        run.OUT.mkdir(exist_ok=True)
        tracer = tracing.Tracer()
        try:
            *_, firsts = run.run_round(self.cli, [query], out_file, tracer)
        finally:
            out_file.unlink(missing_ok=True)
        fields = oracle.parse_answer(query.argv, *firsts[0])["fields"]
        layer, _ = tracer.metrics()
        self.assertGreater(fields["diverged_trials"], 0)
        self.assertEqual(fields["verdict"], "unstable")
        self.assertLess(layer["montecarlo.step_fill"], 1.0)
        self.assertGreater(layer["montecarlo.step_fill"], 0.0)


if __name__ == "__main__":
    sys.exit(unittest.main())
