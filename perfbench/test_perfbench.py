#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at tiny sizes, untraced and traced; every metric
BENCHMARK.json names must print, in the report and in the final JSON line,
with its unit. One run with tampered results must fail the oracle check,
and the counting oracle must agree with stream::ReferenceJoin.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900,
                          check=False)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class WorkloadMetrics(unittest.TestCase):
    def check(self, workload, trace):
        res = run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--tiny")
        self.assertEqual(res.returncode, 0, res.stdout[-3000:] + res.stderr[-3000:])
        result = last_json(res.stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in declared}
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, unit in expected.items():
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float), name)
            self.assertTrue(math.isfinite(value), name)
            self.assertRegex(res.stdout, re.compile(
                rf"^{re.escape(name)}\s+-?[0-9.]+\s+{re.escape(unit)}$",
                re.M))
        for header in ("cpu", "nproc", "governor", "build type", "simd isa",
                       "commit", "seed"):
            self.assertRegex(res.stdout, rf"(?m)^# {header}\s+\S")
        return result["metrics"]

    def test_end_to_end(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload):
                m = self.check(workload, "0")
                for name in ("throughput_tps", "latency_p50_ms", "setup_s",
                             "peak_rss_mb"):
                    self.assertGreater(m[name]["value"], 0, name)

    def test_per_layer(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload):
                m = self.check(workload, "1")
                for name in ("router.route_ns_per_tuple",
                             "tracker.ns_per_tuple", "sw.probe_ns_per_tuple",
                             "net.codec_us_per_batch", "core.epoch_ms_p50"):
                    self.assertGreater(m[name]["value"], 0, name)
                layer = "hw.cycles_per_tuple" if workload == "hw-uniflow" \
                    else "cluster.useful_pair_ratio"
                self.assertGreater(m[layer]["value"], 0, layer)
                spans = os.path.join(ROOT, ".bench_out",
                                     f"spans-{workload}-seed3.json")
                with open(spans) as f:
                    trace = json.load(f)
                self.assertEqual(trace["fields"], ["id", "name", "start_us",
                                                   "end_us", "parent", "batch"])
                names = {s[1] for s in trace["spans"]}
                self.assertLessEqual({"core.process", "router.route_span",
                                      "sw.process_batched", "net.codec"},
                                     names)

    def test_tampered_results_fail_the_oracle(self):
        res = run("--workload", "cluster-zipf-wire", "--seed", "3",
                  "--seconds", "1", "--trace", "0", "--tiny", "--tamper")
        self.assertNotEqual(res.returncode, 0)
        result = last_json(res.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("multiset checked", res.stdout)

    def test_counting_oracle_agrees_with_reference_join(self):
        res = run("--self-test")
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("agree", res.stdout)

    def test_without_library_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            res = run("--workload", "cluster-uniform", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare,
                      script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
