#!/usr/bin/env python3
"""Two-commit comparison: alternating parent/change pairs on every workload.

    python3 reqbench/compare.py --parent ../parent-checkout --change . \\
        [--pairs 10]

Both directories are checkouts holding reqbench/ and src/; each builds
its own reqbench binary under its own .bench_build. Every run measures the
change's BENCHMARK.json run_seconds. Pair i runs seed 1 + i on both sides,
the parent first on even i and the change first on odd i. Per workload,
one row per end-to-end metric gives each side's median and quartiles and
the share of pairs the change won (ties count for neither), with a
verdict:

  unresolved  the parent's own spread (q3 - q1) / median exceeds the bound,
              and not every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile spread;
  same        otherwise.

One traced run per side (seed 1) then sets the per-layer self times side
by side, so a regression points at a layer.
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from steady import SEED, load_benchmark, run_once  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(metric, parent, change):
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
    all_better = (min(change) > max(parent) if higher
                  else max(change) < min(parent))
    if (p3 - p1) / pm > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1):
        verdict = "better"
    else:
        verdict = "same"
    return wins, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    bench = load_benchmark(sides["change"])
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    # Each side builds into its own checkout.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = SEED + i
            order = (["parent", "change"] if i % 2 == 0
                     else ["change", "parent"])
            for side in order:
                _, result = run_once(sides[side], workload, seed, 0, seconds,
                                     env)
                if not result["correct"] or result["failed"]:
                    print("%s %s seed %d: correct=%s failed=%d" %
                          (workload, side, seed, result["correct"],
                           result["failed"]))
                runs[side].append(result["metrics"])
        print("\n== %s: %d pairs of %d s" % (workload, args.pairs, seconds))
        print("%-16s %32s %32s %6s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "wins", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [m[name]["value"] for m in runs["parent"]]
            change = [m[name]["value"] for m in runs["change"]]
            wins, verdict = judge(metric, parent, change)
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print("%-16s %12.5g [%8.5g, %8.5g] %12.5g [%8.5g, %8.5g] "
                  "%3d/%-2d  %s" % (name, pm, p1, p3, cm, c1, c3, wins,
                                    len(parent), verdict))

        traced = {side: run_once(sides[side], workload, SEED, 1, seconds,
                                 env)[1]["metrics"]
                  for side in ("parent", "change")}
        print("per-layer (traced, seed %d)%24s %14s %8s" %
              (SEED, "parent", "change", "ratio"))
        for metric in bench["per_layer"]:
            name = metric["name"]
            p = traced["parent"].get(name, {}).get("value", 0.0)
            c = traced["change"].get(name, {}).get("value", 0.0)
            if p == 0 and c == 0:
                continue
            ratio = "%.3f" % (c / p) if p else "-"
            print("  %-40s %14.6g %14.6g %8s" % (name, p, c, ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
