#!/usr/bin/env python3
"""Builds and runs the OSQ end-to-end benchmark.

    python3 osqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository.  The first run builds the library
and the benchmark program with CMake into $CARGO_TARGET_DIR (default
.bench_build).  Every xdomain-read run first writes the v2 snapshot the
workload loads, with the program just built (an untimed preparation step
in its own process), so the snapshot always comes from the code under
test.  Every run then runs the answer checker's self-test and the
workload.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy of it goes to <build dir>/results/.  See osqbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("xdomain-read", "flickr-verify", "community-churn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("osqbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures and builds osqbench; returns the program's path."""
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src", "CMakeLists.txt")):
        fail("the OSQ sources (src/) are not next to " + BENCH_DIR)
    build_dir = os.path.join(build_root, "osqbench")
    # Keep the compiler's temporary files inside the build directory too.
    tmp_dir = os.path.abspath(os.path.join(build_root, "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "osqbench")


def prepare_snapshot(program, data_dir):
    """Writes xdomain-read's snapshot (and its index build time)."""
    path = os.path.join(data_dir, "xdomain-read.snap")
    tmp = path + ".tmp"
    subprocess.run([program, "prepare", "--out", tmp], check=True,
                   stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    os.replace(tmp + ".build_ms", path + ".build_ms")
    os.replace(tmp, path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    data_dir = os.path.join(build_root, "data")
    results_dir = os.path.join(build_root, "results")

    try:
        program = build(build_root)
        os.makedirs(data_dir, exist_ok=True)
        os.makedirs(results_dir, exist_ok=True)
        if args.workload == "xdomain-read":
            prepare_snapshot(program, data_dir)
        selftest = subprocess.run([program, "selftest"], capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
        sys.stderr.write(selftest.stdout)
        if selftest.returncode != 0:
            fail("the answer checker's self-test failed")
        proc = subprocess.run(
            [program, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--data-dir", data_dir],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(str(e))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("the benchmark program exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark program printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(result, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
