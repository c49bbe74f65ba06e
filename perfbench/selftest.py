"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with either of:

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py

Each workload runs one pass at a tiny size; the checks must pass, a wrong
expected value must count as a failure, traced spans must nest with
nonnegative self times, and traced counts must repeat exactly.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

COUNTS = (
    "erasure_model.build_classes_calls",
    "correction_circuits.attempt_calls",
    "correction_circuits.attempt_distinct",
    "exact_arith.poly_mul_calls",
    "exact_arith.poly_evaluate_calls",
    "markov_engine.build_chain_calls",
    "markov_engine.encoded_failure_at_calls",
    "threshold_solver.bisection_steps",
    "montecarlo.walk_steps",
    "pauli_algebra.supports_logical_calls",
)


def one_pass(name, seed=3, trace=False):
    workload = workloads.build(name, seed, tiny=True)
    return workload, run.run_passes(workload, 0, trace)


class WorkloadChecks(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload, records = one_pass(name)
                self.assertEqual(len(records), len(workload.commands))
                self.assertEqual(run.failed_commands(workload, records), [])

    def test_wrong_expected_value_counts_as_failure(self):
        saved = copy.deepcopy(workloads.EXPECTED)
        try:
            workloads.EXPECTED["rate_ideal"]["1/20"] *= 1 + 1e-12
            workload, records = one_pass("ideal-solve-mc")
        finally:
            workloads.EXPECTED.clear()
            workloads.EXPECTED.update(saved)
        failed = run.failed_commands(workload, records)
        self.assertEqual([f["command"] for f in failed], ["sweep_ideal", "mc_ideal_1_20"])

    def test_wrong_threshold_reference_counts_as_failure(self):
        check = workloads.threshold_check("ideal", workloads.Fraction(1, 10**6))
        payload = {"bracket": ["1/10", "100001/1000000"], "root": "1/10",
                   "iterations": 3, "manifest": {"circuit_config_hash": "80d8c313afc4"}}
        self.assertIn("misses", check(payload))


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload, cls.records = one_pass("ideal-solve-mc", trace=True)

    def test_spans_nest_and_self_times_are_nonnegative(self):
        traced = [r for r in self.records if r["traced"]]
        self.assertEqual(len(traced), len(self.workload.commands))
        for r in traced:
            spans = r["trace"]["spans"]
            self.assertEqual(spans[0][0], "cli.main")
            for rec in spans:
                parent = rec[tracer.PARENT]
                if parent < 0:
                    continue
                outer = spans[parent]
                self.assertLessEqual(outer[tracer.START], rec[tracer.START])
                self.assertLessEqual(rec[tracer.END], outer[tracer.END])
                self.assertEqual(outer[4], rec[4])  # same pass id
            self.assertGreaterEqual(min(tracer.self_times(spans)), -1e-9)

    def test_every_layer_metric_is_reported(self):
        metrics = run.layer_metrics(self.workload, self.records)
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(metrics), {m["name"] for m in bench["per_layer"]})
        self.assertEqual(set(metrics), set(run.PER_LAYER_UNITS))
        self.assertGreater(metrics["markov_engine.encoded_failure_at_calls"], 0)

    def test_counts_repeat_exactly(self):
        first = run.layer_metrics(*one_pass("ideal-solve-mc", trace=True))
        second = run.layer_metrics(*one_pass("ideal-solve-mc", trace=True))
        self.assertEqual([first[k] for k in COUNTS], [second[k] for k in COUNTS])
        self.assertGreater(first["montecarlo.walk_steps"], 0)


class Contract(unittest.TestCase):
    def test_without_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ideal-solve-mc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
