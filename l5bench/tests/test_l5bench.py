#!/usr/bin/env python3
"""Tests of the l5bench benchmark itself, at tiny sizes.

    python3 l5bench/tests/test_l5bench.py      # from the repository root

- every workload, untraced and traced, reports every metric that
  BENCHMARK.json names, with its unit, and validates;
- a stale value (one producer rank writes the previous round's data)
  fails validation: correct is false, failed > 0 and the exit status is 1;
- the environment knobs that change the program are refused;
- without the LowFive sources the command fails fast without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# many_datasets is not gated (see README) but must keep working
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["many_datasets"]


def run(workload, *extra, trace=0, env=None, cwd=ROOT, seconds="0.5"):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", seconds,
                              "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600,
                       env=env)
    last = p.stdout.strip().split("\n")[-1] if p.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p


class Smoke(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, p = run(w, "--tiny", trace=trace)
                self.assertEqual(code, 0, p.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                if key == "end_to_end":
                    for k, v in result["metrics"].items():
                        self.assertGreater(v["value"], 0, k)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class Validation(unittest.TestCase):
    def test_stale_round_fails(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, result, p = run(w, "--tiny", "--inject-stale", trace=trace)
                    self.assertEqual(code, 1, p.stderr)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    if trace == 0:
                        self.assertLess(result["metrics"]["ops_ok_ratio"]["value"], 1)

    def test_refuses_checkers(self):
        for knob in ("L5_CHECK", "L5_RACE", "L5_SCHED", "L5_FAULTS", "L5_TRACE"):
            with self.subTest(knob=knob):
                env = dict(os.environ, **{knob: "1"})
                code, result, p = run("grid_crossed", "--tiny", env=env)
                self.assertEqual(code, 2)
                self.assertIsNone(result)
                self.assertIn(knob, p.stderr)


class Bare(unittest.TestCase):
    def test_without_sources_fails_fast(self):
        bare = ROOT / ".bench_build" / f"test-bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "l5bench", bare / "l5bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, result, p = run("grid_crossed", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
