#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

    python3 perfbench/run.py --workload rand_4k --seed 1 --seconds 10 --trace 0

Configures and builds ../src plus the binary with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root), then runs the binary with the given arguments. Build
output goes to stderr; the binary's last stdout line is the JSON result.
With --trace 1 the benchmark's spans land in the build directory as
trace_<workload>.json. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def workload_of(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--workload":
            return value
    return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    trace_out = os.path.join(build_dir, f"trace_{workload_of(args)}.json")
    try:
        return subprocess.run([exe, *args, "--trace-out", trace_out],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
