#!/usr/bin/env python3
"""Tests of the benchmark's own checks and printer.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark through run.py, runs the C++ self-test of the output
checker (doctored stats records must be rejected), checks that every
workload completes a tiny-size run in both trace modes, and that each run
prints exactly the metrics BENCHMARK.json names, with their units.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + list(args),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout


class BenchmarkChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def test_checker_rejects_doctored_records(self):
        proc = subprocess.run([self.binary, "--selftest"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_benchmark_json_workloads_exist(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertTrue(names)
        self.assertLessEqual(set(names), set(run.WORKLOADS))

    def test_bad_arguments_exit_nonzero(self):
        for args in (["--workload", "nope", "--seed", "1"],
                     ["--workload", "zipf_cached", "--trace", "2"],
                     ["--seed", "1"]):
            code, stdout = run_bench(*args)
            self.assertNotEqual(code, 0, args)
            self.assertNotIn('"correct"', stdout)

    def check_result(self, stdout, specs):
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [s["name"] for s in specs])
        for s in specs:
            metric = result["metrics"][s["name"]]
            self.assertEqual(metric["unit"], s["unit"], s["name"])
            self.assertIsInstance(metric["value"], (int, float), s["name"])

    def test_tiny_runs_print_every_metric(self):
        for w in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, stdout = run_bench("--workload", w, "--seed", "3",
                                             "--seconds", "1", "--trace", trace,
                                             "--size", "tiny")
                    self.assertEqual(code, 0, stdout)
                    self.check_result(stdout, SPEC[key])


if __name__ == "__main__":
    unittest.main()
