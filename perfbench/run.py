#!/usr/bin/env python3
"""Builds and runs Tell's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tpcc_write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds the library from src/ and the
benchmark into .bench_build/ (a CMake project of its own, perfbench/
CMakeLists.txt), runs one workload, and forwards the program's output; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. Result records and traces go to .bench_out/. The metric names and
units printed are checked against BENCHMARK.json. --selftest runs the test
that shows each correctness check failing on a tampered result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("tpcc_write", "tpcc_read", "ch_hybrid")
# The program itself stops starting rounds after --seconds; this bounds a
# run that hangs.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Tell sources at {os.path.join(ROOT, 'src')}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs, "--target",
         "tellbench", "tellbench_checks_test"],
        stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns why the result line breaks the output contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct, attempted, failed, metrics"
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not all(isinstance(m, dict) for m in metrics.values()):
        return "metrics is not an object of objects"
    printed = {name: m.get("unit") for name, m in metrics.items()}
    if printed != expected_metrics(trace):
        return "metric names or units differ from BENCHMARK.json"
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in 1..120")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD_DIR, "tellbench_checks_test")]).returncode)

    command = [os.path.join(BUILD_DIR, "tellbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace == 1) if lines[-1] else "no output"
    if problem is not None:
        # Keep the malformed line off stdout, so it cannot pass for a result.
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print(lines[-1], file=sys.stderr)
        fail(f"{problem} (exit code {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
