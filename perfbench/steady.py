#!/usr/bin/env python3
"""Steadiness check: two sets of runs over seeds 1..N on every workload.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--trace 0|1]

Runs every workload of BENCHMARK.json once per seed 1..runs, then does the
whole set again.  For each set, workload and metric of the mode it prints
the median and the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median; for the second
set also the change of its median from the first set's, marked "exact"
when every seed gave the same value in both sets.  A gated spread
(every bounded metric but setup_s) must stay below a third of the
metric's bound, and no second median may be worse than the first by more
than the bound.  The end-to-end metrics BENCHMARK.json does not gate
(round times, CPU, view, freshness, detection) are listed after the
gated ones, with no limit.  Each run's
wall time and host line are printed as it ends.
Exits 1 if any run fails or any limit is broken.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PRINTED_ONLY = ("round_ms_p50", "round_ms_p90", "cpu_ms_per_round",
                "root_cpu_ms_per_round", "fresh_ms_p50", "fresh_ms_p90",
                "view_cold_ms_p50", "view_cold_ms_p90", "view_warm_ms_p50",
                "view_warm_ms_p99", "detect_rounds")


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        sys.exit("run of %s seed %d failed" % (workload, seed))
    host = [line.split("host: ", 1)[1] for line in lines if "host: " in line]
    printed = {line.split()[1]: float(line.split()[2])
               for line in lines if line.startswith("metric ")}
    return json.loads(lines[-1]), wall, " | ".join(host), printed


def spread(values):
    median = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [0, 0, 0]
    return median, (q[2] - q[0]) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    listed = metrics + [{"name": n} for n in PRINTED_ONLY]
    first = {}  # (workload, metric) -> first set's values, by seed
    ok = True
    for number in (1, 2):
        for workload in [w["name"] for w in spec["workloads"]]:
            values = {}
            for i in range(args.runs):
                seed = 1 + i
                result, wall, host, printed = run_once(
                    workload, seed, spec["run_seconds"], args.trace)
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d "
                      "wall %.1f s | %s" % (
                          number, workload, seed, result["correct"],
                          result["attempted"], result["failed"], wall, host),
                      flush=True)
                ok = ok and result["correct"] and result["failed"] == 0
                measured = {n: m["value"] for n, m in result["metrics"].items()}
                for name in PRINTED_ONLY:
                    if name in printed:
                        measured[name] = printed[name]
                for name, value in measured.items():
                    values.setdefault(name, []).append(value)
            print("set %d %-12s %-36s %14s %8s %8s %14s  %s" % (
                number, "workload", "metric", "median", "spread", "limit",
                "vs set1", "values"))
            for metric in listed:
                name = metric["name"]
                if name not in values:
                    continue
                median, share = spread(values[name])
                bound = metric.get("bound")
                over = []
                if bound is not None and name != "setup_s" \
                        and share > bound / 3:
                    over.append("SPREAD")
                change = ""
                if number == 2:
                    before = first[(workload, name)]
                    ratio = median / statistics.median(before) - 1 \
                        if statistics.median(before) else 0.0
                    change = "%+7.2f%%" % (100 * ratio)
                    worse = -ratio if metric.get("better") == "higher" \
                        else ratio
                    if bound is not None and worse > bound:
                        over.append("SHIFT")
                    if values[name] == before:
                        change += " exact"
                else:
                    first[(workload, name)] = values[name]
                ok = ok and not over
                print("set %d %-12s %-36s %14.4f %7.2f%% %8s %14s  %s%s" % (
                    number, workload, name, median, 100 * share,
                    "%.2f%%" % (100 * bound / 3) if bound is not None else "-",
                    change, " ".join("%.6g" % v for v in values[name]),
                    "  " + " ".join(over) if over else ""), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
