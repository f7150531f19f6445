#!/usr/bin/env python3
"""Smoke test of the benchmark: the fewest ops of every workload.

    python3 bench/smoke.py

Runs bench/run.py with --seconds 0 (one op, one cycle of cli-mix) on every
workload, untraced and traced, and checks that

- the result line has the contract's keys and every metric BENCHMARK.json
  names, and no other;
- no op failed, except on cli-mix exactly the `mass --q 16 --ell 320` ops
  (with and without --containing), whose counts exceed Python's
  int-to-str digit limit;
- the per-layer self times add up to no more than the traced wall time.

It also checks the benchmark's own exact-mode d* oracle against the frozen
tables the cli-mix checks use.  About a minute on two cores.
"""

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402

KNOWN_FAILURE = "mass --q 16 --ell 320"
LAYERS = ("fields", "codes", "constructions", "mass", "census", "bounds", "cli")


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)

    def check_workload(self, workload: str, known_failures: Fraction = Fraction(0)):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                report, result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], report["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                want = {m["name"]: m["unit"] for m in self.spec[section]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertEqual(Fraction(result["failed"], result["attempted"]), known_failures)
                for detail in report["failures"]:
                    self.assertTrue(detail.startswith(KNOWN_FAILURE), detail)
                if trace:
                    values = {name: m["value"] for name, m in result["metrics"].items()}
                    layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS)
                    self.assertLessEqual(layer_self, values["trace.wall_s"])

    def test_census(self):
        self.check_workload("census")

    def test_witness(self):
        self.check_workload("witness")

    def test_sample(self):
        self.check_workload("sample")

    def test_cli_mix(self):
        self.check_workload("cli-mix", known_failures=Fraction(2, 33))

    def test_exact_oracle_matches_frozen_tables(self):
        tables = []
        with open(os.path.join(ROOT, "tests", "fixtures", "dstar_fixtures.json"), encoding="utf-8") as f:
            tables.append(json.load(f))
        with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as f:
            tables.append(json.load(f)["dstar_oracle"])
        for table in tables:
            for theorem, type2 in (("theorem1", False), ("theorem2", True)):
                for ell, d in table[theorem].items():
                    self.assertEqual(oracle.largest_distance(int(ell), "exact", type2), d, (theorem, ell))


if __name__ == "__main__":
    unittest.main()
