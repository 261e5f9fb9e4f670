#!/usr/bin/env python3
"""Self-tests of the tmx benchmark's layer attribution and runner.

    python3 perfbench/test_perfbench.py

Builds the driver (as run.py does), then checks that the traced link puts
host time where it belongs and that the runner refuses to report without
the repository's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

LAYERS = ("body", "sched", "cache", "numa", "barrier", "tx", "abort", "alloc")


def traced(workload):
    rep = run.run_once(run.TRACED, workload, 0)
    assert rep is not None, f"traced {workload} failed"
    return rep


def shares(rep):
    """Each layer's share of the time attributed to layers."""
    layers = rep["layers"]
    total = sum(layers[f"{l}_ns"] for l in LAYERS)
    return {l: layers[f"{l}_ns"] / total for l in LAYERS}


class Attribution(unittest.TestCase):
    def test_yield_only_body_is_scheduler_time(self):
        s = shares(traced("selftest_yield"))
        self.assertGreater(s["sched"], 0.85, s)

    def test_allocator_only_body_is_allocator_time(self):
        s = shares(traced("selftest_alloc"))
        self.assertEqual(max(s, key=s.get), "alloc", s)
        self.assertGreater(s["alloc"], 0.75, s)
        self.assertLess(s["body"], 0.1, s)

    def test_workloads_add_up_and_exercise_their_layers(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rep = traced(w)
                self.assertTrue(rep["correct"])
                layers = rep["layers"]
                wall = layers["wall_ns"]
                accounted = (sum(layers[f"{l}_ns"] for l in LAYERS) +
                             layers["trace_ns"] + layers["unattributed_ns"])
                self.assertAlmostEqual(accounted / wall, 1.0, places=4)
                self.assertLess(abs(layers["unattributed_ns"]) / wall, 0.02)
                exercised = {"sched", "barrier", "tx", "alloc", "body"}
                if w != "server_mix":
                    exercised.add("cache")
                if w == "hashset_numa":
                    exercised.add("numa")
                if rep["sim"]["stm.aborts"] > 0:
                    exercised.add("abort")
                for l in exercised:
                    self.assertGreater(layers[f"{l}_ns"], 0.0, l)
                if w == "server_mix":  # cache model off
                    self.assertEqual(layers["cache_ns"], 0.0)


class Runner(unittest.TestCase):
    def test_refuses_without_sources(self):
        os.makedirs(os.path.dirname(run.BUILD), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.dirname(run.BUILD)) as tmp:
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "rbtree",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180, check=False)
            self.assertNotEqual(p.returncode, 0)
            for line in p.stdout.splitlines():
                with self.assertRaises(ValueError):
                    json.loads(line)


if __name__ == "__main__":
    if not run.build():
        sys.exit(1)
    unittest.main()
