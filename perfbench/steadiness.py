#!/usr/bin/env python3
"""Checks that the benchmark is steady on one commit.

    python3 perfbench/steadiness.py [--runs 10] [--workload W ...]

Runs two sets of `--runs` runs of every workload, each run with its own
seed and BENCHMARK.json's run_seconds, then prints, per workload and
end-to-end metric, each set's median and quartiles and the quartile spread
as a share of the median. It reports whether every spread stays within the
metric's bound from BENCHMARK.json, whether the two sets' medians differ by
no more than the bound (either way), and whether the share of failed
operations is the same in every run. Exits 0 when all of that holds. Seeds
count up from 1: set 1 runs each workload in turn on the next `--runs`
seeds, then set 2 does the same. Raw results go to
.bench_build/steadiness.json.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    workloads = args.workload or names
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    results = {}
    seed = FIRST_SEED
    for s in range(SETS):
        for workload in workloads:
            for _ in range(args.runs):
                result = run_once(workload, seed, spec["run_seconds"])
                results.setdefault(workload, [[] for _ in range(SETS)])
                results[workload][s].append({"seed": seed, "result": result})
                print("set %d %-13s seed %-4d correct=%s attempted=%d "
                      "failed=%d" % (s + 1, workload, seed,
                                     result["correct"], result["attempted"],
                                     result["failed"]), flush=True)
                seed += 1

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)

    steady = True
    for workload in workloads:
        sets = results[workload]
        print("\n== %s" % workload)
        shares = set()
        for runs in sets:
            if not all(r["result"]["correct"] for r in runs):
                print("  a run reported correct=false")
                steady = False
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            shares.update(fractions.Fraction(r["result"]["failed"],
                                             r["result"]["attempted"])
                          for r in runs)
            print("  failed %d of %d attempted" % (failed, attempted))
        if len(shares) != 1:
            print("  the share of failed operations differs between runs")
            steady = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            cells = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                ok = spread <= bound
                steady &= ok
                cells.append("med %11.4f q1 %11.4f q3 %11.4f spread %.3f%s"
                             % (med, q1, q3, spread, "" if ok else " (!)"))
            drift_ok = all(abs(med - medians[0]) <= bound * medians[0]
                           for med in medians[1:])
            steady &= drift_ok
            print("  %-15s bound %.2f  %s  %s" % (
                name, bound, " | ".join(cells),
                "agree" if drift_ok else "DISAGREE"))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
