#!/usr/bin/env python3
"""Regression test for tools/bench_diff.py (registered with ctest).

Locks in the contract the CI bench gate depends on:
  * benchmarks present only in the current run are "added" informational
    rows — they must never fail the diff (new benches land without a
    baseline refresh in the same commit);
  * benchmarks present only in the baseline are "gone" informational rows;
  * a real regression beyond the threshold still fails;
  * with repetitions, each file's fastest repetition is compared.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "bench_diff.py")


def bench_json(entries):
    """{name: cpu_time, or a list of one per repetition} as benchmark JSON."""
    rows = []
    for name, values in entries.items():
        for value in values if isinstance(values, list) else [values]:
            rows.append({"name": name, "run_type": "iteration",
                         "cpu_time": value})
    return {"benchmarks": rows}


def run_diff(baseline, current, extra_args=()):
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(bench_json(baseline), fh)
        with open(cur_path, "w", encoding="utf-8") as fh:
            json.dump(bench_json(current), fh)
        proc = subprocess.run(
            [sys.executable, BENCH_DIFF, base_path, cur_path, *extra_args],
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout


def run_saturation(floors, report_text):
    with tempfile.TemporaryDirectory() as tmp:
        floors_path = os.path.join(tmp, "floors.json")
        report_path = os.path.join(tmp, "report.txt")
        with open(floors_path, "w", encoding="utf-8") as fh:
            json.dump(floors, fh)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_text)
        proc = subprocess.run(
            [sys.executable, BENCH_DIFF, "--saturation", floors_path,
             report_path],
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout


def expect(condition, label, output):
    if condition:
        print(f"ok: {label}")
        return True
    print(f"FAIL: {label}\n--- bench_diff output ---\n{output}")
    return False


def main():
    ok = True

    # New-run-only benchmark (the stage-breakdown benches land this way):
    # reported as "(new)", exit 0.
    code, out = run_diff(
        {"BM_InstancePut4K": 100.0},
        {"BM_InstancePut4K": 101.0, "BM_InstancePut4KWithStages": 120.0},
    )
    ok &= expect(code == 0, "new-only benchmark does not fail", out)
    ok &= expect("(new)" in out, "new-only benchmark reported as (new)", out)

    # Baseline-only benchmark: reported as "(gone)", exit 0.
    code, out = run_diff(
        {"BM_InstancePut4K": 100.0, "BM_Retired": 50.0},
        {"BM_InstancePut4K": 99.0},
    )
    ok &= expect(code == 0, "baseline-only benchmark does not fail", out)
    ok &= expect("(gone)" in out, "missing benchmark reported as (gone)", out)

    # A genuine regression past the threshold still trips the gate, even
    # when an added benchmark is present in the same run.
    code, out = run_diff(
        {"BM_InstancePut4K": 100.0},
        {"BM_InstancePut4K": 140.0, "BM_InstancePut4KWithStages": 120.0},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 1, "regression beyond threshold fails", out)
    ok &= expect("REGRESSION" in out, "regression row flagged", out)

    # Within-threshold wobble passes.
    code, out = run_diff(
        {"BM_InstancePut4K": 100.0},
        {"BM_InstancePut4K": 110.0},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 0, "within-threshold delta passes", out)

    # "/threads:1" is the same series as the bare name: when a benchmark
    # grows ->Threads() variants, its single-threaded run must still be
    # compared against the old bare-name baseline (and regressions there
    # still fail).
    code, out = run_diff(
        {"BM_InstancePut4K": 100.0},
        {"BM_InstancePut4K/threads:1": 140.0,
         "BM_InstancePut4K/threads:4": 90.0},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 1, "threads:1 compared against bare-name baseline",
                 out)
    ok &= expect("BM_InstancePut4K/threads:4" in out and "(new)" in out,
                 "other threads:N series stay distinct (new)", out)

    # And the same fold works in the other direction once the baseline
    # itself carries /threads:1 names.
    code, out = run_diff(
        {"BM_InstancePut4K/threads:1": 100.0,
         "BM_InstancePut4K/threads:4": 90.0},
        {"BM_InstancePut4K/threads:1": 101.0,
         "BM_InstancePut4K/threads:4": 91.0},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 0, "threads:N baselines compare cleanly", out)

    # Repetitions: the fastest of each file is compared, so one slow
    # repetition (a noisy neighbour) does not fail the gate...
    code, out = run_diff(
        {"BM_InstancePut4K": [130.0, 100.0, 105.0]},
        {"BM_InstancePut4K": [300.0, 108.0, 140.0]},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 0, "fastest repetitions compared", out)

    # ...but a slowdown every repetition shows still does.
    code, out = run_diff(
        {"BM_InstancePut4K": [130.0, 100.0, 105.0]},
        {"BM_InstancePut4K": [130.0, 125.0, 140.0]},
        extra_args=("--threshold", "0.15"),
    )
    ok &= expect(code == 1, "slowdown in every repetition fails", out)

    # --saturation mode: throughput at or above every floor passes, and
    # the "_comment" key in the committed floors file is ignored.
    floors = {"_comment": "doc", "qps_threads_1": 300, "qps_threads_4": 1000}
    code, out = run_saturation(
        floors, "qps_threads_1: 900\nqps_threads_4: 3500\nextra: 1\n")
    ok &= expect(code == 0, "throughput above floors passes", out)

    # A collapse below a floor fails even though no microbenchmark ran.
    code, out = run_saturation(
        floors, "qps_threads_1: 900\nqps_threads_4: 120\n")
    ok &= expect(code == 1, "throughput below a floor fails", out)
    ok &= expect("REGRESSION" in out, "floor violation flagged", out)

    # A floor key missing from the report fails (a silently skipped
    # saturation run must not read as green).
    code, out = run_saturation(floors, "qps_threads_1: 900\n")
    ok &= expect(code == 1, "missing floor key fails", out)

    print("bench_diff_test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
