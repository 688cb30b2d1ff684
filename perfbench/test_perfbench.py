#!/usr/bin/env python3
"""Self-test of the memx benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Runs every workload for one operation (the small size) and checks that
  * every operation's output passes its check,
  * an untraced run prints every end-to-end metric of BENCHMARK.json by
    name with its unit, and a traced run every per-layer metric,
  * the deterministic work counters repeat exactly between two traced
    runs with the same seed.
Takes a few minutes: the paper_mpeg operation alone is ~8 s.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_COUNTERS = [
    "layout.keys_certified", "loopir.trace_refs", "loopir.pattern_hit_ratio",
    "stackdist.profile_refs", "stackdist.grid_cells", "cachesim.sim_accesses",
    "search.evals", "search.generations", "serve.store_hit_ratio",
    "serve.errors", "trace.bytes_read",
]


def run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--ops", "1"],
        stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, result: dict, expected: dict) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_end_to_end_metrics_print_with_units(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, trace=0)
                self.check_result(result, units(BENCH["end_to_end"]))
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_work_counters_repeat_exactly(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, trace=1)
                second = run(workload, trace=1)
                self.check_result(first, units(BENCH["per_layer"]))
                self.check_result(second, units(BENCH["per_layer"]))
                for name in EXACT_COUNTERS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
