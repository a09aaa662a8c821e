"""Self-test of the benchmark: a short run of each workload, untraced and traced.

    python3 -m unittest perfbench/test_perfbench.py      (from the checkout root)

Asserts that every metric BENCHMARK.json names is printed with its unit,
that every job was checked, and that the benchmark refuses to run, without
printing a result, where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class BenchmarkTest(unittest.TestCase):
    def run_workload(self, name, trace):
        proc = bench(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[:-1])
        self.assertGreaterEqual(result["attempted"], 1)
        summary = dict(item.split("=", 1) for item in lines[-2].split() if "=" in item)
        self.assertEqual(int(summary["checked"]) + int(summary["crashed"]), result["attempted"])
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_workloads(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.run_workload(workload["name"], trace)

    def test_refuses_without_program(self):
        empty = os.path.join(ROOT, ".perfbench", "selftest-empty")
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        try:
            proc = bench(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=empty)
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
