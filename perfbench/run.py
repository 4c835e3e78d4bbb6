#!/usr/bin/env python3
"""Entry point of the Tiera end-to-end benchmark.

Builds the benchmark package in perfbench/ (which compiles the server layers
straight from src/), runs one workload, and prints the result as one JSON
object on the last line of stdout:

    python3 perfbench/run.py --workload durable_rw --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; instance data and trace spans go to a
work/ directory inside it. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, with --trace 1 the per-layer ones. Without the
sources next to it, the script exits non-zero and prints no result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 150


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "tiera_perfbench", "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(step))
    return os.path.join(build_dir, "tiera_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "instance.h")):
        die("Tiera sources (src/) not found next to perfbench/", code=2)
    if shutil.which("cmake") is None:
        die("cmake not found", code=2)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # The program runs with its shipped telemetry defaults: no TIERA_*
    # overrides leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIERA_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        for name in os.listdir(work_dir):
            if name.startswith("data-"):
                shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        die(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
