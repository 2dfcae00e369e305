#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload <tatp|tpcc|tatp_failover> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the FaRM sources it compiles) with CMake, then runs
rounds of farm_perfbench, each a fresh process on the same seed: one round
per 10 s of --seconds (at least two). Simulated metrics must come out
bit-identical in every round, traced or not. Host metrics, which each round
reports in reference seconds (see README.md), are medians over the rounds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
measures one untraced and one traced round and reports the per-layer
metrics.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tatp", "tpcc", "tatp_failover")

# An untraced run measures one round per SECONDS_PER_ROUND of --seconds, and
# at least two, so every run checks that two processes on one seed simulate
# bit-identical results. The count depends on --seconds only, never on how
# fast the host is. A traced run measures one untraced and one traced round,
# which must agree too.
SECONDS_PER_ROUND = 10
MIN_ROUNDS = 2
ROUND_TIMEOUT_SECONDS = 150


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds farm_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no FaRM sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "farm_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "farm_perfbench")


def run_round(binary, workload, seed, mode):
    """Runs one farm_perfbench process (mode untraced or traced); returns its
    parsed JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchError("round timed out: " + " ".join(cmd))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("round failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["mode"] = mode
    return record


def run_rounds(binary, workload, seed, seconds, trace):
    if trace:
        modes = ["untraced", "traced"]
    else:
        modes = ["untraced"] * max(MIN_ROUNDS, round(seconds / SECONDS_PER_ROUND))
    return [run_round(binary, workload, seed, mode) for mode in modes]


def determinism_errors(rounds):
    """Simulated values must be identical in every round of a seed. Keys that
    only traced rounds report are compared among the traced rounds."""
    errors = []
    first = {}
    for i, r in enumerate(rounds):
        for key, value in r["sim"].items():
            if key not in first:
                first[key] = (i, value)
            elif first[key][1] != value:
                errors.append("round %d %s = %r, round %d had %r"
                              % (i, key, value, first[key][0], first[key][1]))
    return errors


def median_host(rounds, key):
    return statistics.median(r["host"][key] for r in rounds)


def host_metrics(rounds):
    """Host-cost metrics over a seed's rounds of one kind. Times are in
    reference seconds, as each round reports them."""
    sim = rounds[0]["sim"]
    window = median_host(rounds, "measure_cpu_s")
    return {
        "host_cpu_us_per_tx": window * 1e6 / sim["committed"],
        "sim.host_ns_per_event": window * 1e9 / sim["sim.events"],
        "setup_s": median_host(rounds, "setup_s"),
        "peak_rss_mb": median_host(rounds, "peak_rss_mb"),
        "core.rss_growth_mb_per_mtx": median_host(rounds, "rss_growth_mb") * 1e6 / sim["committed"],
        "workload.start_cpu_s": median_host(rounds, "start_cpu_s"),
        "workload.load_cpu_s": median_host(rounds, "load_cpu_s"),
        "workload.warmup_cpu_s": median_host(rounds, "warmup_cpu_s"),
        "workload.measure_cpu_s": window,
        "workload.setup_wall_s": median_host(rounds, "setup_wall_s"),
        "workload.ref_chunk_ms": median_host(rounds, "ref_chunk_ms"),
    }


def collect(rounds, trace, spec):
    """Builds the metrics dict for the reported kind of run."""
    untraced = [r for r in rounds if r["mode"] == "untraced"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    reported = traced if trace else untraced
    sim = reported[0]["sim"]
    host = host_metrics(reported)
    values = {}
    for name in (m["name"] for m in wanted):
        if name == "obs.trace_overhead_frac":
            values[name] = (median_host(traced, "measure_cpu_s")
                            / median_host(untraced, "measure_cpu_s") - 1.0)
        elif name in host:
            values[name] = host[name]
        elif name in sim:
            values[name] = sim[name]
        elif name.startswith("core.recovery.") or name == "ds.reads_per_get":
            # No kill in this workload (recovery), or no hash-table probe (TPC-C
            # keeps its tables private): the layer did no such work.
            values[name] = 0.0
        else:
            raise BenchError("round reported no value for " + name)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        binary = build()
        rounds = run_rounds(binary, args.workload, args.seed, args.seconds, args.trace)
        metrics = collect(rounds, args.trace, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    errors = [e for r in rounds for e in r["errors"]] + determinism_errors(rounds)
    first = rounds[0]["sim"]
    print("workload %s, seed %d: %d rounds (%d traced)" % (
        args.workload, args.seed, len(rounds), sum(r["mode"] == "traced" for r in rounds)))
    print("committed samples per round: %d of %d attempted" % (
        first["committed"], first["attempted"]))
    if "core.recovery.recover_95_ms" in first:
        print("recovery_ms %.6g ms (kill until per-ms throughput is back to 95%% of the "
              "pre-kill rate)" % first["core.recovery.recover_95_ms"])
    for r in rounds:
        h = r["host"]
        print("%s round: window %.4g CPU s = %.4g reference s, set-up %.4g CPU s = %.4g "
              "reference s, reference chunk %.4g ms" % (
                  r["mode"], h["measure_raw_cpu_s"], h["measure_cpu_s"], h["setup_raw_cpu_s"],
                  h["setup_s"], h["ref_chunk_ms"]))
    refused = sorted({name for r in rounds for name in r["refused"]})
    if refused:
        print("refused (fewer than 10 samples beyond the percentile; reported as 0): "
              + ", ".join(refused))
    for name, m in metrics.items():
        print("%-44s %16.6g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("ERROR: " + e)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["sim"]["attempted"] for r in rounds),
        "failed": sum(r["sim"]["unresolved"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
