#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 reqbench/test_reqbench.py

Builds reqbench (as run.py does), then checks: the percentile,
sample-count and metric-name rules and the request lists (byte-identical
for one seed, different for another) through `reqbench --self-test`;
BENCHMARK.json against the contract's limits; a short smoke run of every
workload, traced and untraced, with the correctness gate on, the metrics
BENCHMARK.json lists, and equal response digests in both modes; and one
full-length run of every workload, in which no single request may take
more than 1% of the timed wall time.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_REQUESTS = "1000"  # the fewest that leave ten samples beyond p99
MAX_REQUEST_SHARE = 0.01  # of a full-length run's timed wall time


class ReqbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = run.build_dir()
        if not run.build(cls.out_dir):
            raise RuntimeError("reqbench build failed")
        cls.binary = os.path.join(cls.out_dir, "reqbench")
        cls.work_dir = os.path.join(cls.out_dir, "test")
        os.makedirs(cls.work_dir, exist_ok=True)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def drive(self, *args):
        done = subprocess.run(
            [self.binary, *args,
             "--serve-bin", os.path.join(self.out_dir, "mapinv_serve"),
             "--work-dir", os.path.relpath(self.work_dir, ROOT)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            timeout=170)
        self.assertEqual(done.returncode, 0, " ".join(args))
        return done.stdout

    def test_self_test(self):
        # Percentile and sample-count rules, metric names, and request lists:
        # byte-identical for one seed, different for another.
        self.assertIn("self-test: ok", self.drive("--self-test"))

    def test_benchmark_json(self):
        bench = self.bench
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))
        self.assertEqual(len(names), len(set(names)))

    def test_smoke_every_workload(self):
        for workload in ("invert", "exchange", "worlds", "serve"):
            results = {}
            for trace in ("0", "1"):
                lines = self.drive("--workload", workload, "--seed", "3",
                                   "--trace", trace,
                                   "--requests", SMOKE_REQUESTS)
                lines = lines.strip().splitlines()
                diag = json.loads(lines[-2])["diagnostics"]
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload, trace, diag))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(diag["check"], "ok")
                table = self.bench["end_to_end" if trace == "0"
                                   else "per_layer"]
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in table])
                for m in table:
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])
                results[trace] = diag["digest"]
            # Traced replay and ExecuteRequest/serve answer byte-identically.
            self.assertEqual(results["0"], results["1"], workload)

    def test_no_request_dominates_a_run(self):
        seconds = str(self.bench["run_seconds"])
        for workload in ("invert", "exchange", "worlds", "serve"):
            lines = self.drive("--workload", workload, "--seed", "2",
                               "--seconds", seconds, "--trace", "0")
            lines = lines.strip().splitlines()
            diag = json.loads(lines[-2])["diagnostics"]
            self.assertTrue(json.loads(lines[-1])["correct"], workload)
            self.assertLessEqual(diag["max_request_share"], MAX_REQUEST_SHARE,
                                 workload)


if __name__ == "__main__":
    unittest.main()
