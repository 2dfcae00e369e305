#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 perfbench/report.py [--workloads tatp,tpcc,...] [--seeds 10]
        [--first-seed 1] [--seconds S] [--save F] [--against F]

Runs run.py once per seed and workload, exactly as a benchmark run does, and
prints each end-to-end metric's median, quartiles and spread
(Q3 - Q1) / median. A spread over the metric's bound is flagged. --save
keeps the values; --against compares the medians with a saved set and flags
a metric whose median is worse by more than its bound. The exit status is 1
when anything is flagged.

It also prints the simulated end-to-end metrics seed by seed, so that a
claim can be checked on a seed it was not tuned on. (Each run already checks
that its rounds of one seed, traced or not, simulate bit-identical values.)
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

SIM_END_TO_END = ("tx_per_s", "p50_us", "p99_us", "p999_us", "fail_frac")


def result_line(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise run.BenchError("run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    values = {}
    flagged = []
    for workload in args.workloads:
        per_metric = values.setdefault(workload, {})
        for seed in seeds:
            result = result_line(workload, seed, seconds)
            if not result["correct"]:
                flagged.append("%s seed %d: incorrect" % (workload, seed))
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        print("\n%s (%d seeds from %d, %s s per run)" % (
            workload, args.seeds, args.first_seed, seconds))
        print("%-20s %14s %14s %14s %8s %6s %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", ""))
        for name, vals in per_metric.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            notes = []
            if spread > bound:
                notes.append("SPREAD OVER BOUND")
                flagged.append("%s %s spread %.4f > %.4f" % (workload, name, spread, bound))
            elif spread > bound / 3:
                notes.append("spread over bound/3")
            old = previous.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                change = (med - old_med) / old_med
                worse = -change if bounds[name]["better"] == "higher" else change
                notes.append("vs saved %+.2f%%" % (100 * change))
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
                    flagged.append("%s %s median worse by %.4f" % (workload, name, worse))
            print("%-20s %14.6g %14.6g %14.6g %8.4f %6.3f %s" % (
                name, q1, med, q3, spread, bound, "; ".join(notes)))
        print("\n%-12s" % "seed" + "".join("%14s" % name for name in SIM_END_TO_END))
        for i, seed in enumerate(seeds):
            print("%-12d" % seed + "".join("%14.6g" % per_metric[name][i]
                                           for name in SIM_END_TO_END))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    for f in flagged:
        print("FLAGGED: " + f)
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0, help="default: run_seconds")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    try:
        return report(args, run.load_spec())
    except run.BenchError as e:
        sys.stderr.write("report: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
