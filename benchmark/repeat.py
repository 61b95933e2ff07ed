#!/usr/bin/env python3
"""Stability check of the benchmark's end-to-end metrics (run.sh --repeat N).

For each workload, runs two sets of N runs (seeds 1..N each) and prints,
per end-to-end metric, each set's median, its spread (distance between the
first and third quartile over the median) and the shift of the second
median against the first, next to the metric's bound from BENCHMARK.json.
A metric passes when both spreads (setup_s excepted) are within its bound
and the second median is not worse than the first by more than the bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["reduce_cold", "scatter_cold", "drift_serve", "exec_drift"]


def run_once(workload, seed, extra):
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stderr[-2000:]}")
    for line in lines:
        if line.startswith("FAIL"):
            print("  " + line)
    result = json.loads(lines[-1])
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--repeat needs at least 2 runs per set")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    extra = (["--seconds", args.seconds] if args.seconds else []) + \
        (["--smoke"] if args.smoke else [])
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    all_pass = True
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in metrics}
            for seed in range(1, args.runs + 1):
                result = run_once(workload, seed, extra)
                if not result["correct"] or result["failed"]:
                    all_pass = False
                    print(f"  {workload} seed {seed}: correct="
                          f"{result['correct']} failed={result['failed']}")
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            sets.append(values)
        print(f"{workload} ({args.runs} runs per set)")
        print(f"  {'metric':<18} {'median1':>12} {'spread1':>8} "
              f"{'median2':>12} {'spread2':>8} {'shift':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            ma, mb = statistics.median(a), statistics.median(b)
            shift = (mb - ma) / ma if ma else 0.0
            worse = shift if m["better"] == "lower" else -shift
            ok = worse <= bound and (name == "setup_s" or
                                     (spread(a) <= bound and spread(b) <= bound))
            all_pass = all_pass and ok
            print(f"  {name:<18} {ma:>12.5g} {spread(a):>8.3f} {mb:>12.5g} "
                  f"{spread(b):>8.3f} {shift:>+8.3f} {bound:>6.3f}"
                  f"  {'ok' if ok else 'OUT OF BOUND'}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
