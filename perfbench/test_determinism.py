#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, seeding and the environment guard.

    python3 perfbench/test_determinism.py

Builds radical_perfbench the way run.py does, then runs every workload at a
small scale and checks that
  - two runs with the same seed agree bit for bit on the virtual-time
    metrics, the window counts and the span statistics;
  - tracing does not change the simulation;
  - another seed draws another arrival sequence;
  - every run passes the output check;
  - the metrics carry the names and units BENCHMARK.json declares;
  - radical_perfbench, and so run.py, refuse to run when an environment
    variable would change the program under test. The variables are the ones
    radical_perfbench's usage message names.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = 0.05


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def rep(self, workload, seed, traced=False):
        result = run.run_once(self.binary, workload, seed, traced=traced, scale=SCALE)
        self.assertTrue(result["correct"], result["violations"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_same_seed_repeats_bit_for_bit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.rep(workload, 7, traced=True)
                b = self.rep(workload, 7, traced=True)
                self.assertEqual(run.deterministic_part(a), run.deterministic_part(b))
                self.assertEqual(a["spans"], b["spans"])

    def test_tracing_does_not_change_the_simulation(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = self.rep(workload, 11)
                traced = self.rep(workload, 11, traced=True)
                self.assertEqual(run.deterministic_part(plain), run.deterministic_part(traced))

    def test_another_seed_changes_the_arrivals(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.rep(workload, 7)
                b = self.rep(workload, 8)
                self.assertNotEqual(a["arrival_hash"], b["arrival_hash"])

    def test_generator_never_lags(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.rep(workload, 3)["virtual"]["gen_lag_max_ms"], 0.0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        plain = [self.rep("hotel_failover", 5)]
        traced = [self.rep("hotel_failover", 5, traced=True)]
        setups = [run.run_once(self.binary, "hotel_failover", 5, setup_only=True)]
        for declared, reported in ((spec["end_to_end"], run.end_to_end(plain, setups)),
                                   (spec["per_layer"], run.per_layer(plain, traced, setups))):
            self.assertEqual(sorted(m["name"] for m in declared), sorted(reported))
            for m in declared:
                self.assertEqual(m["unit"], reported[m["name"]]["unit"])

    def test_refuses_an_environment_that_changes_the_program(self):
        usage = subprocess.run([self.binary], capture_output=True, text=True, timeout=60)
        self.assertEqual(usage.returncode, 2)
        prefix = "refuses to run when any of these is set:"
        line = next(l for l in usage.stderr.splitlines() if l.startswith(prefix))
        names = line[len(prefix):].split()
        self.assertIn("RADICAL_SHARDS", names)
        for name in names:
            with self.subTest(variable=name):
                proc = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                     "social_read", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    env=dict(os.environ, **{name: "1"}), capture_output=True, text=True,
                    timeout=60)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")
                binary = subprocess.run(
                    [self.binary, "--workload", "social_read", "--seed", "1"],
                    env=dict(os.environ, **{name: "1"}), capture_output=True, text=True,
                    timeout=60)
                self.assertEqual(binary.returncode, 2)


if __name__ == "__main__":
    unittest.main()
