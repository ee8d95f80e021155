#!/usr/bin/env python3
"""Steadiness report: run one workload N times and set the spread of every
end-to-end metric against its bound from BENCHMARK.json.

    python3 reqbench/steady.py --workload exchange --runs 10
    python3 reqbench/steady.py --workload invert --runs 5 --traced-runs 2

Every run measures BENCHMARK.json's run_seconds. The untraced runs use
seeds 1, 2, ...; for each end-to-end metric the report gives the median,
the quartiles (statistics.quantiles, n=4), the min/max and the spread
(q3 - q1) / median, marked "steady" below a third of the bound, "within" up
to the bound and "UNSTEADY" beyond it. A run fails the report if it is not
correct, if it failed a request, or if a single request took more than 1%
of its timed wall time. The traced runs all use seed 1: every per-layer
count (unit "count") must repeat exactly, the layers' self times must
cover at least 90% of the request time, and every run of seed 1, traced or
not, must report the same response digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1  # the first seed; run i uses SEED + i
MAX_REQUEST_SHARE = 0.01  # of a run's timed wall time, for any one request
MIN_COVERAGE_PCT = 90.0  # layer self time of a traced run's request time


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, trace, seconds, env=None):
    """Runs run.py once; returns (diagnostics, result) or raises."""
    cmd = [sys.executable, os.path.join(root, "reqbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          check=False, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError("run failed: %s (exit %d)" % (" ".join(cmd),
                                                        done.returncode))
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with statistics' quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(share, bound):
    if share <= bound / 3:
        return "steady"
    return "within" if share <= bound else "UNSTEADY"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args()
    bench = load_benchmark()

    ok = True
    values = {m["name"]: [] for m in bench["end_to_end"]}
    base_digests = []
    for i in range(args.runs):
        seed = SEED + i
        diag, result = run_once(ROOT, args.workload, seed, 0,
                                bench["run_seconds"])
        share = diag["max_request_share"]
        if (not result["correct"] or result["failed"] != 0 or
                share > MAX_REQUEST_SHARE):
            ok = False
            print("run %d (seed %d): correct=%s failed=%d "
                  "max_request_share=%.4f" %
                  (i, seed, result["correct"], result["failed"], share))
        if seed == SEED:
            base_digests.append(diag["digest"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("run %d seed %d: %s max_request_share=%.4f" % (
            i, seed, " ".join("%s=%.6g" % (n, v[-1])
                              for n, v in values.items()), share),
              flush=True)

    print("\n%s: %d runs of %d s" % (args.workload, args.runs,
                                      bench["run_seconds"]))
    print("%-16s %12s %12s %12s %12s %12s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "min", "max", "spread", "bound",
           "verdict"))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if len(values[name]) < 2:
            continue
        median, q1, q3, share = spread(values[name])
        mark = verdict(share, metric["bound"])
        if mark == "UNSTEADY":
            ok = False
        print("%-16s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %5.0f%%  %s" %
              (name, median, q1, q3, min(values[name]), max(values[name]),
               100 * share, 100 * metric["bound"], mark))

    if args.traced_runs:
        counts = [m["name"] for m in bench["per_layer"]
                  if m["unit"] == "count"]
        seen = []
        covered = {"trace.coverage_pct": [], "trace.overhead_pct": []}
        for _ in range(args.traced_runs):
            diag, result = run_once(ROOT, args.workload, SEED, 1,
                                    bench["run_seconds"])
            ok = ok and result["correct"] and result["failed"] == 0
            base_digests.append(diag["digest"])
            seen.append({n: result["metrics"][n]["value"] for n in counts})
            for n in covered:
                covered[n].append(result["metrics"][n]["value"])
        repeated = all(s == seen[0] for s in seen)
        ok = ok and repeated
        print("\nper-layer counts over %d traced runs of seed %d: %s" %
              (len(seen), SEED,
               "repeat exactly" if repeated else "DIFFER"))
        for n in counts:
            print("  %-28s %s" % (n, " ".join("%.0f" % s[n] for s in seen)))
        for n in ("trace.coverage_pct", "trace.overhead_pct"):
            print("  %-28s %s" % (n, " ".join("%.1f" % c for c in covered[n])))
        if min(covered["trace.coverage_pct"]) < MIN_COVERAGE_PCT:
            ok = False
            print("  coverage below %.0f%%" % MIN_COVERAGE_PCT)
    if len(set(base_digests)) > 1:
        ok = False
    if base_digests:
        print("response digest of seed %d: %s" % (
            SEED,
            base_digests[0] if len(set(base_digests)) == 1
            else "DIFFERS " + " ".join(base_digests)))
    print("\nsteadiness: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
