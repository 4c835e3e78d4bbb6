#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

Usage:
    tools/bench_diff.py BASELINE CURRENT [--threshold 0.15] [--metric cpu_time]
    tools/bench_diff.py --saturation FLOORS REPORT

Exits non-zero when any benchmark present in both files regressed by more
than the threshold (relative slowdown of the chosen metric). A file may hold
several repetitions of a benchmark (--benchmark_repetitions): its fastest
one is compared, since noise on a shared host only ever adds time. Benchmarks that
appear in only one file are reported but never fail the check, so adding or
removing a benchmark does not require regenerating the baseline in the same
commit.

The baseline is committed at bench/BENCH_micro.json. Regenerate it with the
bench lane's own command, from the Release build the lane compares, on the
kind of host the lane runs on (a Debug or 1-CPU baseline is slow enough to
hide a large regression):
    cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ci-release -j --target micro_primitives
    build-ci-release/bench/micro_primitives --benchmark_min_time=0.05 \
        --benchmark_repetitions=5 \
        --benchmark_format=json --benchmark_out=bench/BENCH_micro.json
Then run the lane against it a few times: on a host whose speed drifts by
more than the threshold between runs, no baseline holds.

Microbenchmark timings wobble across machines and runs; 15% default
threshold is deliberately loose — this is a tripwire for order-of-magnitude
mistakes (an accidental O(n^2), a lock on the data path), not a precision
instrument.

--saturation folds end-to-end throughput into the same gate: FLOORS is the
committed bench/BENCH_saturation.json ({"qps_threads_1": N, ...} absolute
QPS floors, set far below any healthy machine's numbers), REPORT is the
"key: value" report saturation_smoke wrote. Any matching qps_* line below
its floor fails the check — a throughput collapse is a regression even when
every microbenchmark is still green.
"""

import argparse
import json
import sys


def canonical_name(name):
    """Folds the single-threaded series onto the bare benchmark name.

    google-benchmark renames `BM_X` to `BM_X/threads:1` the moment the
    registration gains `->Threads(...)` variants; the measured work is
    identical, so treating them as the same series keeps history comparable
    when a benchmark grows threaded variants. Other `/threads:N` series stay
    distinct.
    """
    if name.endswith("/threads:1"):
        return name[: -len("/threads:1")]
    return name


def load_benchmarks(path, metric):
    """Returns {name: fastest metric_value} over the non-aggregate entries."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name")
        value = entry.get(metric)
        if name is None or value is None:
            continue
        name = canonical_name(name)
        out[name] = min(float(value), out.get(name, float("inf")))
    return out


def parse_report(path):
    """Parses saturation_smoke's "key: value" report into {key: float}."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if ":" not in line:
                continue
            key, _, value = line.partition(":")
            try:
                out[key.strip()] = float(value.strip())
            except ValueError:
                continue
    return out


def check_saturation(floors_path, report_path):
    with open(floors_path, "r", encoding="utf-8") as fh:
        floors = {
            k: v for k, v in json.load(fh).items() if not k.startswith("_")
        }
    report = parse_report(report_path)
    failures = []
    width = max(len(k) for k in floors) if floors else 10
    print(f"{'throughput':<{width}}  {'floor':>12}  {'current':>12}")
    for key in sorted(floors):
        floor = float(floors[key])
        current = report.get(key)
        if current is None:
            failures.append((key, "missing from report"))
            print(f"{key:<{width}}  {floor:>12.0f}  {'-':>12}  << MISSING")
            continue
        flag = ""
        if current < floor:
            flag = "  << REGRESSION"
            failures.append((key, f"{current:.0f} < floor {floor:.0f}"))
        print(f"{key:<{width}}  {floor:>12.0f}  {current:>12.0f}{flag}")
    if failures:
        print(f"\nbench_diff: {len(failures)} throughput floor(s) violated:")
        for key, why in failures:
            print(f"  {key}: {why}")
        return 1
    print(f"\nbench_diff: OK ({len(floors)} throughput floors held)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="freshly generated JSON")
    parser.add_argument(
        "--saturation",
        nargs=2,
        metavar=("FLOORS", "REPORT"),
        help="check saturation_smoke REPORT against the FLOORS JSON "
        "instead of (or in addition to) the microbenchmark diff",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="max allowed relative slowdown (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--metric",
        default="cpu_time",
        help="benchmark field to compare (default cpu_time)",
    )
    args = parser.parse_args()

    if args.saturation:
        rc = check_saturation(args.saturation[0], args.saturation[1])
        if args.baseline is None:
            return rc
        if rc != 0:
            return rc
    if args.baseline is None or args.current is None:
        parser.error("BASELINE and CURRENT are required without --saturation")

    baseline = load_benchmarks(args.baseline, args.metric)
    current = load_benchmarks(args.current, args.metric)
    if not baseline:
        print(f"bench_diff: no benchmarks in baseline {args.baseline}")
        return 2
    if not current:
        print(f"bench_diff: no benchmarks in current run {args.current}")
        return 2

    regressions = []
    added = []
    removed = []
    width = max(len(n) for n in sorted(set(baseline) | set(current)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            added.append(name)
            print(f"{name:<{width}}  {'-':>12}  {current[name]:>12.1f}  (new)")
            continue
        if name not in current:
            removed.append(name)
            print(f"{name:<{width}}  {baseline[name]:>12.1f}  {'-':>12}  (gone)")
            continue
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        flag = ""
        if delta > args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, delta))
        print(
            f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  "
            f"{delta:+7.1%}{flag}"
        )

    # Benchmarks present in only one file are informational: new benches land
    # without a baseline refresh in the same commit, and retired ones do not
    # block the check either.
    if added:
        print(f"\nbench_diff: {len(added)} benchmark(s) not in baseline "
              f"(informational, never fail the diff):")
        for name in added:
            print(f"  {name} (new)")
    if removed:
        print(f"\nbench_diff: {len(removed)} baseline benchmark(s) missing "
              f"from the current run (informational):")
        for name in removed:
            print(f"  {name} (gone)")

    if regressions:
        print(
            f"\nbench_diff: {len(regressions)} benchmark(s) regressed more "
            f"than {args.threshold:.0%}:"
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        return 1
    compared = len(set(baseline) & set(current))
    print(f"\nbench_diff: OK ({compared} benchmarks within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
