#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs one workload.

    python3 hostbench/run.py --workload switch_linerate|chain_t1 \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository. The first run
configures and builds the emu library and the benchmark (Release) under
.bench_build/hostbench; later runs only check that the build is current.
Build output goes to stderr, so the benchmark's report is all of stdout and
its last line is the JSON result. The exit status is the benchmark's: 0 when
every output check passed, nonzero otherwise.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
WORKLOADS = ("switch_linerate", "chain_t1")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no emu sources (src/CMakeLists.txt) in " + ROOT)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "hostbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "hostbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "hostbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree, not a git checkout
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("hostbench: build failed: %s" % err)
    sys.stdout.flush()
    result = subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--git-sha", git_sha()], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
