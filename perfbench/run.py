#!/usr/bin/env python3
r"""Builds the benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload query-fp32 --seed 1 --seconds 10 \
        --trace 0

The build tree goes to $CARGO_TARGET_DIR, or to .bench_build when that is
unset; the run's scratch files (durability directories, span traces) go to
its run/ subdirectory. The last line of standard output is the result
object; build output and progress go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("query-fp32", "query-sharded-sq8", "stream-durable")


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", cmake_dir, "-j", jobs,
            "--target", "dblsh_perfbench"]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(cmake_dir, "dblsh_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    scratch = os.path.join(build_dir, "run")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    binary = build(build_dir, env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print("perfbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
