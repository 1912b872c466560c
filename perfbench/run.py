#!/usr/bin/env python3
"""The repository benchmark: warm, repeated NSLD self-joins, checked.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (and the library it links)
into .bench_build/perfbench with CMake, runs one workload of
BENCHMARK.json from the seed, and relays the program's report. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}, holding the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1. The exit code is 0 only when every join
and every output check passed. Traced runs also leave a Chrome trace-event
file in .bench_build/perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = BUILD_DIR / "out"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources (CMakeLists.txt, src/) under {ROOT}")
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", "4"]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            fail(f"build step failed: {' '.join(step)}")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    # CC_* variables are the engine's test-tier overrides (forced spill
    # budgets, fault injection, checkpoint dirs); they would change the
    # workload, so the program never sees them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CC_")}
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(OUT_DIR)]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode not in (0, 1) or not lines:
        sys.stdout.write(result.stdout)
        fail(f"perfbench exited with code {result.returncode}")
    report = json.loads(lines[-1])
    missing = expected_metrics(args.trace) - set(report["metrics"])
    if missing:
        sys.stdout.write(result.stdout)
        fail(f"result lacks metrics {sorted(missing)}")
    print("\n".join(lines))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
