#!/usr/bin/env python3
"""Request-level benchmark of mapinv: build it, run one workload.

Run from the repository root:

    python3 reqbench/run.py --workload invert --seed 1 --seconds 12 --trace 0

It configures and builds reqbench/ (the mapinv library from src/, the real
mapinv_serve daemon from tools/, and the reqbench program) into
.bench_build/reqbench, then runs reqbench. Its stdout is passed through;
its last line is the result object
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to stderr. Exit status is non-zero, with no result line,
when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR") or
            os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "reqbench")


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def build(out_dir):
    """Configures (once) and builds reqbench and the server."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("reqbench: no mapinv sources next to reqbench/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "reqbench", "mapinv_serve"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print("reqbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["invert", "exchange", "worlds", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans-out", default="",
                        help="with --trace 1, write every span as JSON lines")
    args = parser.parse_args()

    out_dir = build_dir()
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    if not build(out_dir):
        return 1
    work_dir = os.path.join(out_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    # Relative paths keep the unix socket path short.
    cmd = [os.path.join(out_dir, "reqbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(out_dir, "mapinv_serve"),
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.spans_out:
        cmd += ["--spans-out", os.path.abspath(args.spans_out)]
    # reqbench runs in its own process group, so that a run cut short also
    # takes down the mapinv_serve child it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        print("reqbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        kill_group(proc.pid)
        print("reqbench: exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
