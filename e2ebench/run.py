#!/usr/bin/env python3
"""Build and run the AutoCkt end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload train_two_stage --seed 1 \
        --seconds 20 --trace 0

Configures and builds e2ebench/ (Release, out of tree under
$CARGO_TARGET_DIR, default .bench_build) on every call -- a no-op once the
build is current -- then runs the benchmark binary with the same arguments.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Any build failure exits nonzero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "--target",
                    "autockt_e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "autockt_e2ebench")


def main():
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        print("e2ebench: build failed: %s" % err, file=sys.stderr)
        return 2
    workdir = os.path.join(build_root, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workdir", workdir,
           "--agent", os.path.join(HERE, "data", "ngm_ota_agent.txt")]
    return subprocess.run(cmd + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
