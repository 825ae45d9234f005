#!/usr/bin/env python3
"""Builds and runs the open-loop ChainReaction benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload put_chain --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, runs the crx_perfbench binary with the
same arguments, and passes its report through. A run the binary declares
invalid (host interference in most windows) is repeated in a fresh process.
The last line of standard output is the JSON result. Exits non-zero,
printing no result, when the build fails or no attempt is valid.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("put_chain", "read_mostly_disk")
RUN_BUDGET_S = 165    # every attempt of one run, after the build
MAX_ATTEMPTS = 5
EXIT_INVALID = 4      # crx_perfbench: host interference, run again


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; run from a full checkout")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "crx_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "crx_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rate", type=float, default=0,
                    help="override the workload's offered rate (ops/s), for tuning")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        log("perfbench: build failed")
        return 2

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rate > 0:
        base += ["--rate", str(args.rate)]
    # A run with host interference in most of its windows exits with
    # EXIT_INVALID and is repeated in a fresh process (so no state of the
    # discarded attempt, memory included, reaches the next), as long as
    # another attempt fits in the time budget.
    data_dir = os.path.join(target, "perfbench-data-%d" % os.getpid())
    start = time.monotonic()
    attempt = 0
    while True:
        began = time.monotonic()
        left = RUN_BUDGET_S - (began - start)
        proc = subprocess.Popen(base + ["--data-dir", data_dir, "--attempt", str(attempt)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("perfbench: run exceeded its %d s budget" % RUN_BUDGET_S)
            return 3
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        sys.stdout.write(out)
        sys.stdout.flush()
        if proc.returncode != EXIT_INVALID:
            break
        took = time.monotonic() - began
        if time.monotonic() - start + took > RUN_BUDGET_S or attempt + 1 >= MAX_ATTEMPTS:
            log("perfbench: host interference on every attempt; no valid run")
            return 3
        attempt += 1
    if proc.returncode != 0:
        log("perfbench: benchmark exited with %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
