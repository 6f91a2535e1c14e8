#!/usr/bin/env python3
"""Builds the training benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload preset_1024 --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench under the checkout root. The
harness prints one JSON result line as the last line of standard output;
build output and per-training notes go to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("preset_1024", "vfgbdt_1024", "mock_100k")


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found under " + root)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    binary = build(root)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("perfbench: harness exited with code %d" % done.returncode)


if __name__ == "__main__":
    main()
