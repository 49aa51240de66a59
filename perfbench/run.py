#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 20 --trace 0

Builds the benchmark binary, perfbench (and, for serve_mixed, the rcmc
binary it serves from), in release mode into $CARGO_TARGET_DIR (default
.bench_build), then runs the benchmark. Its last stdout line is the
result; see perfbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
# A run measures for --seconds, plus set-up and the correctness check.
RUN_GRACE_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep_paper", "sweep_slowmem", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for need in ["Cargo.toml", "crates/sim/Cargo.toml", "src/bin/rcmc.rs",
                 "perfbench/Cargo.toml"]:
        if not os.path.isfile(need):
            fail(f"run from the repository root: {need} is missing")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [["cargo", "build", "--release", "--quiet",
               "--manifest-path", "perfbench/Cargo.toml"]]
    if args.workload == "serve_mixed":
        builds.append(["cargo", "build", "--release", "--quiet", "--bin", "rcmc"])
    for cmd in builds:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    bench = os.path.join(target, "release", "perfbench")
    cmd = [bench,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--rcmc", os.path.join(target, "release", "rcmc")]
    try:
        done = subprocess.run(cmd, env=env, timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
