#!/usr/bin/env python3
"""The benchmark's own tests: smoke-size runs of every workload.

    python3 perfbench/test_bench.py

Each workload runs at tiny sizes (--smoke) with two seeds, untraced and
traced. Every run must pass all of its output checks and print exactly the
metric names BENCHMARK.json lists, with their units. A copy of the benchmark
without the repository's sources must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


class SmokeTest(unittest.TestCase):
    def check(self, workload, seed, trace):
        done = run(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_every_workload_two_seeds_both_modes(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                names = [sorted(self.check(w["name"], seed, trace)["metrics"])
                         for seed in (1, 2)]
                self.assertEqual(names[0], names[1])

    def test_end_to_end_metrics_are_never_zero(self):
        for w in SPEC["workloads"]:
            metrics = self.check(w["name"], 3, 0)["metrics"]
            for name, m in metrics.items():
                self.assertGreater(m["value"], 0, (w["name"], name))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
