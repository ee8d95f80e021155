#!/usr/bin/env python3
"""Deterministic count gate for the request-level benchmark.

    python3 bench/reqbench_counts.py

Runs the already-built `.bench_build/reqbench/reqbench` (build it with
`python3 reqbench/run.py` or `python3 reqbench/test_reqbench.py`) traced,
over a fixed 1000 requests, for every workload at seeds 1-3, and compares
the per-layer counts below with the golden bench/reqbench_counts.json,
exactly. These counts repeat run after run on any host, so a moved count
means the algorithm changed, whatever the timings say. On a mismatch the
script prints every mismatch and then the measured JSON; when the move is
intended, replace the golden file with that JSON by hand. Exit status is 0
when every count matches, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "reqbench_counts.json")
WORKLOADS = ["invert", "exchange", "worlds", "serve"]
SEEDS = [1, 2, 3]
REQUESTS = "1000"
COUNTS = ["chase.facts", "eval.hom_searches", "chase.worlds_forked",
          "inversion.deps_out", "rewrite.disjuncts"]
RUN_TIMEOUT_S = 170


def measure(out_dir, workload, seed):
    """The counts of one traced run, keyed by metric name."""
    work_dir = os.path.join(out_dir, "counts")
    os.makedirs(work_dir, exist_ok=True)
    done = subprocess.run(
        [os.path.join(out_dir, "reqbench"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--requests", REQUESTS,
         "--serve-bin", os.path.join(out_dir, "mapinv_serve"),
         # Relative, so the serve workload's unix socket path stays short.
         "--work-dir", os.path.relpath(work_dir, ROOT)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("reqbench %s seed %d exited with %d"
                           % (workload, seed, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("reqbench %s seed %d: correct=%s, failed=%d"
                           % (workload, seed, result["correct"],
                              result["failed"]))
    return {name: int(result["metrics"][name]["value"]) for name in COUNTS}


def main():
    out_dir = os.path.join(ROOT, ".bench_build", "reqbench")
    if not os.path.isfile(os.path.join(out_dir, "reqbench")):
        print("reqbench_counts: no %s; build it first"
              % os.path.join(out_dir, "reqbench"), file=sys.stderr)
        return 1
    measured = {w: {str(s): measure(out_dir, w, s) for s in SEEDS}
                for w in WORKLOADS}
    with open(GOLDEN) as f:
        golden = json.load(f)
    mismatches = []
    for workload in WORKLOADS:
        for seed in map(str, SEEDS):
            want = golden.get(workload, {}).get(seed, {})
            got = measured[workload][seed]
            for name in COUNTS:
                if want.get(name) != got[name]:
                    mismatches.append("%s seed %s %s: golden %s, measured %d"
                                      % (workload, seed, name,
                                         want.get(name), got[name]))
    if not mismatches:
        print("reqbench_counts: %d counts match"
              % (len(WORKLOADS) * len(SEEDS) * len(COUNTS)))
        return 0
    for line in mismatches:
        print("reqbench_counts: " + line, file=sys.stderr)
    print("reqbench_counts: measured counts follow; if the move is intended, "
          "replace %s with them" % os.path.relpath(GOLDEN, ROOT),
          file=sys.stderr)
    print(json.dumps(measured, indent=2, sort_keys=True))
    return 1


if __name__ == "__main__":
    sys.exit(main())
