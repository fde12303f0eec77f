#!/usr/bin/env python3
"""Build perfbench from this source tree and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <policy_sweep|flash_crowd|geo_sharded>
                             --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The benchmark's stdout ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. Reports
with every named check are written to <build dir>/results/. See NOTES.md.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    try:
        proc = subprocess.run([binary, *sys.argv[1:], "--out", results],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: exit code {proc.returncode}, no result line",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
