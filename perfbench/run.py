#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload replay_cold --seed 20170514 \
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (and the library sources it links) under .bench_build/; later runs
only re-check the build. The benchmark's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output check passed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("replay_cold", "replay_shared_durable", "net_router_small")
DEFAULT_SEED = 20170514
# A run measures for --seconds plus set-up and post-run layer timings; this
# bounds the whole run well inside three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build(env):
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, env=env,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"perfbench: build step failed: {error}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed", file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Keep compiler and benchmark scratch files inside the checkout.
    scratch = os.path.join(BUILD_ROOT, "scratch", str(os.getpid()))
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(scratch, "tmp"))
    try:
        if not build(env):
            return 2
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scratch", scratch]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 3
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        return done.returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
