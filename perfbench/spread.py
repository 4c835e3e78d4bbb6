#!/usr/bin/env python3
"""Spread report: runs workloads N times each and prints each metric's spread.

    python3 perfbench/spread.py --workload durable_rw,cache_s3 --runs 10
        [--sets 2] [--seed0 1] [--seconds 30] [--trace 0]
        [--out runs.json] [--compare old.json]

Runs are interleaved: run i of every set and every workload comes before
run i+1 of any, so a slow stretch of the host falls on all of them alike.
Run i of set k uses seed seed0 + k * runs + i. For every metric the report
gives, per set, the median, the first and third quartiles as
statistics.quantiles(values, n=4) computes them, the spread
(Q3 - Q1) / median, and the bound BENCHMARK.json fixes for it. A spread at
or above a third of its bound is flagged. With two or more sets, "moved" is
how far the last set's median is worse than the first set's, counted in the
metric's worse direction; --compare reads an --out file of an earlier report
and measures the move against its first set instead. Run it from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode})")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        sys.exit(f"{workload} seed {seed} reported incorrect output")
    return result


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric, old, new):
    if not old:
        return 0.0
    worse = (new - old) / old
    return -worse if metric.get("better") == "higher" else worse


def report(workload, sets, baseline, metrics, runs, seconds, trace):
    print(f"\n{workload}: {len(sets)} set(s) x {runs} runs x {seconds} s, trace {trace}")
    header = f"{'metric':32} {'bound':>6}"
    for k in range(len(sets)):
        header += f" {'median' + str(k):>12} {'spread' + str(k):>8}"
    print(header + f" {'moved':>8}")
    for name in sets[0]:
        m = metrics.get(name, {})
        bound = m.get("bound")
        line = f"{name:32} {'' if bound is None else bound:>6}"
        flag = ""
        for values in sets:
            med, _, _, spread = stats(values[name])
            line += f" {med:12.6g} {spread:8.4f}"
            if bound is not None and spread >= bound / 3 and not flag:
                flag = "  <-- spread >= bound/3"
        first = baseline.get(name) if baseline else (sets[0][name] if len(sets) > 1 else None)
        moved = ""
        if first:
            worse = worse_by(m, statistics.median(first), statistics.median(sets[-1][name]))
            moved = f"{worse:+8.3f}"
            if bound is not None and worse > bound:
                flag += "  <-- worse than bound"
        print(f"{line} {moved:>8}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics, spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload.split(",")
    # values[workload][set][metric] -> list of values, one per run
    values = {w: [{} for _ in range(args.sets)] for w in workloads}
    failed = {w: [0] * args.sets for w in workloads}
    for i in range(args.runs):
        for k in range(args.sets):
            for w in workloads:
                seed = args.seed0 + k * args.runs + i
                result = run_once(w, seed, seconds, args.trace)
                for name, m in result["metrics"].items():
                    values[w][k].setdefault(name, []).append(m["value"])
                print(f"{w} set {k} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']}", file=sys.stderr)
                failed[w][k] += result["failed"]
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump({"runs": args.runs, "seconds": seconds,
                                   "values": values}, f, indent=1)
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["values"]
    for w in workloads:
        baseline = previous[w][0] if w in previous else None
        report(w, values[w], baseline, metrics, args.runs, seconds, args.trace)
        if any(failed[w]):
            print(f"  <-- failed ops per set: {failed[w]}; every op should succeed")


if __name__ == "__main__":
    main()
