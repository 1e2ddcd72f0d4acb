#!/usr/bin/env python3
"""Build the OPERA benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is compiled with dune into a build directory of its own
($CARGO_TARGET_DIR, default .bench_build), so it never touches a
developer's _build.  The benchmark binary prints the run header, a human
summary, and as its last line the JSON result object.  Exits non-zero
without a result when the build fails (for instance in a directory that
holds only the benchmark).
"""

import os
import subprocess
import sys

EXE = "perfbench/opera_bench.exe"


def main():
    root = os.getcwd()
    build_base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_base, "dune"))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("run.py: no dune-project here; run from the root of an OPERA checkout",
              file=sys.stderr)
        return 2
    os.makedirs(build_base, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./" + EXE],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", EXE)
    work_dir = os.path.join(build_base, "work")
    os.makedirs(work_dir, exist_ok=True)
    run = subprocess.run([exe, "--work-dir", work_dir] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
