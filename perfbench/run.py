#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tree_xml|dashboard|membership \
        --seed N --seconds S --trace 0|1 [--smoke]

The first call configures and builds perfbench/ and the src/ libraries it
links into .bench_build/perfbench (about a minute on 4 cores); later calls
only re-check the build.

One run is PARTS perfbench processes in a row, each doing one setup and an
equal share of the measured rounds at the same seed.  Each process gets a
fresh address-space layout, which moves this program's round times by up
to a fifth; sampling several layouts per run keeps runs comparable.
Percentile metrics (<name>_pNN) are taken over the pooled samples of all
parts, every other metric is the median of the parts' values.

The parts' text reports and every measured metric go to standard output,
followed by one JSON line holding the metrics BENCHMARK.json lists for the
requested mode: its end_to_end metrics with --trace 0, its per_layer
metrics with --trace 1.  The traced run also writes each part's spans to
.bench_build/traces/.  Exits non-zero, without a JSON line, when the build
or a run fails.
"""
import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
PARTS = 6
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale for the benchmark's own smoke test")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    parts = 2 if args.smoke else PARTS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    probe_before, ticks_before = probe(), cpu_ticks()
    results = [run_part(args, part, parts, deadline) for part in range(parts)]
    probe_after, ticks_after = probe(), cpu_ticks()
    total = ticks_after[1] - ticks_before[1]
    steal = (ticks_after[0] - ticks_before[0]) / total if total else 0.0
    # Host noise, printed beside the metrics and never as one of them.
    print("host: steal %.2f%% of CPU time; calibration kernel %.3f ms before, "
          "%.3f ms after" % (100 * steal, probe_before, probe_after))

    measured = combine(results)
    for name in sorted(measured):
        print("metric %-40s %16.6f %s" % (name, measured[name]["value"],
                                          measured[name]["unit"]))
    metrics = {}
    bypassed = []
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            if not args.trace:
                fail("workload %s did not report %s" % (args.workload, name))
            # A layer this workload never calls: its "no change" is 0.
            bypassed.append(name)
            measured[name] = {"value": 0.0, "unit": metric["unit"]}
        if measured[name]["unit"] != metric["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (name, measured[name]["unit"], metric["unit"]))
        metrics[name] = measured[name]
    if bypassed:
        print("bypassed layers (reported as 0): " + " ".join(bypassed))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0
                      and all(r["correct"] for r in results),
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))


def probe():
    """Milliseconds of the binary's fixed calibration kernel."""
    out = subprocess.run([BINARY, "--probe"], stdout=subprocess.PIPE,
                         text=True, timeout=60)
    if out.returncode != 0:
        fail("host probe failed")
    return json.loads(out.stdout)["calibration_ms"]


def cpu_ticks():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_part(args, part, parts, deadline):
    """Run one perfbench process; echo its report and return its JSON."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--parts", str(parts)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d-part%d.tsv" % (args.workload, args.seed, part))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("perfbench exited with code %d" % run.returncode)
    for line in lines[:-1]:
        print("part %d: %s" % (part, line))
    return json.loads(lines[-1])


def percentile(values, p):
    """Linear interpolation between closest ranks, as Samples::percentile."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def combine(results):
    """Pool percentile metrics over all parts' samples; median the rest."""
    combined = {}
    for name, metric in results[0]["metrics"].items():
        pooled = re.fullmatch(r"(.+)_p(\d+)", name)
        if pooled and pooled.group(1) in results[0]["samples"]:
            samples = [v for r in results
                       for v in r["samples"][pooled.group(1)]]
            value = percentile(samples, int(pooled.group(2)))
        else:
            value = statistics.median(r["metrics"][name]["value"]
                                      for r in results)
        combined[name] = {"value": value, "unit": metric["unit"]}
    return combined


if __name__ == "__main__":
    main()
