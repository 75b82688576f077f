"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that each workload, plain and traced, emits every metric
``BENCHMARK.json`` declares with its unit and direction and with correct
outputs; that the traced run's layer self times add up to the profiled
total; that the layer fold never charges a built-in called from
``repro`` to ``host.stdlib``; that a span file is written; and that the
benchmark refuses to run without the simulator's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYERS, STDLIB  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
SEED = 5


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def layer_metric(layer: str) -> str:
    return "host.stdlib_self_s" if layer == STDLIB else f"{layer}.self_s"


class DeclarationTest(unittest.TestCase):
    def test_declared_metrics_have_unit_direction_and_target(self):
        names = set()
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertIn(metric["better"], ("lower", "higher"))
            self.assertTrue(metric["unit"])
            self.assertNotIn(metric["name"], names)
            names.add(metric["name"])
        for metric in BENCH["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual({m["name"] for m in BENCH["per_layer"]},
                         set(SPEC["targets"]))
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        workload_names = {w["name"] for w in BENCH["workloads"]}
        for pairs in SPEC["targets"].values():
            for pair in pairs:
                metric, workload = pair.split(" on ")
                self.assertIn(metric, e2e)
                self.assertIn(workload, workload_names)
        self.assertEqual(workload_names, set(workloads.WORKLOADS))
        self.assertIsInstance(SPEC["held_out_seed"], int)


class WorkloadTest(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"])
            self.assertTrue(math.isfinite(emitted["value"]))
        return result["metrics"]

    def test_every_workload(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(run(workload, 0),
                                            BENCH["end_to_end"])
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                traced = self.check_result(run(workload, 1),
                                           BENCH["per_layer"])
                self.check_trace(workload, traced)

    def check_trace(self, workload: str, metrics: dict):
        record = json.loads((HERE / "out" / f"{workload}-seed{SEED}"
                             "-trace.json").read_text())
        total = metrics["trace.profiled_s"]["value"]
        layered = sum(metrics[layer_metric(layer)]["value"]
                      for layer in LAYERS)
        self.assertGreater(total, 0)
        self.assertAlmostEqual(layered, total, delta=1e-9 * total)
        profile = [r for r in record["reps"] if r["mode"] == "profile"][0]
        self.assertEqual(profile["fold"]["repro_builtins_in_stdlib"], [])
        names = {span["name"] for span in record["spans"]}
        self.assertTrue({"process", "drive", "sim.run"} <= names, names)
        self.assertTrue(all(span["end_us"] >= span["start_us"]
                            for span in record["spans"]))
        if workload in workloads.SHARDED:
            self.assertGreater(metrics["parallel.messages"]["value"], 0)
            self.assertGreater(metrics["persist.capture_s"]["value"], 0)
            self.assertTrue(any(r["sharded"] for r in record["reps"]))
        if workload == "serve-node":
            self.assertEqual(
                metrics["network.remote_accesses"]["value"], 0)


class BareCheckoutTest(unittest.TestCase):
    def test_refuses_without_source(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run("serve-node", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
