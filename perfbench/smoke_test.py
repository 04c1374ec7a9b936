#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale (a few seconds).

Usage (from the root of a checkout):  python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json and both trace modes, runs
perfbench/run.py --smoke (4 hosts per cluster, 16 gossip members, a handful
of rounds, 2 perfbench processes) and checks the output contract: the last
line is one JSON object with exactly correct/attempted/failed/metrics,
the run is correct with no failures, and the metrics are exactly the
mode's list with finite values in the listed units.  It also checks that
counts repeat exactly at one seed, that every per-layer metric is measured
by some workload, and that a copy holding only BENCHMARK.json and
perfbench/ fails without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("bytes_per_round", "detect_rounds", "rrd.updates_per_round",
         "http.cache.hit_ratio", "gossip.rows_per_round")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_contract(spec, workload, trace, seed):
    out = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"])
    where = "%s trace=%d seed=%d" % (workload, trace, seed)
    assert out.returncode == 0, where + ": exit %d\n%s" % (out.returncode, out.stderr)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), where
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], where + " " + metric["name"]
        assert math.isfinite(got["value"]), where + " " + metric["name"]
    bypassed, printed = set(), {}
    for line in lines:
        if line.startswith("bypassed layers"):
            bypassed.update(line.split(": ", 1)[1].split())
        elif line.startswith("metric "):
            printed[line.split()[1]] = line.split()[2]
    return printed, bypassed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    never_measured = {m["name"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first, bypassed = check_contract(spec, workload, trace, seed=7)
            again, _ = check_contract(spec, workload, trace, seed=7)
            for name in EXACT:
                if name in first:
                    assert first[name] == again[name], (workload, name)
            if trace:
                never_measured &= bypassed
            print("ok  %s trace=%d" % (workload, trace))
    # Every per-layer metric is measured by some workload (a misspelt name
    # would otherwise read 0 everywhere).
    assert not never_measured, never_measured

    # Without the program's sources the build must fail, loudly and fast.
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0"], cwd=bare)
    assert out.returncode != 0 and "\"metrics\"" not in out.stdout
    shutil.rmtree(bare)
    print("ok  bare checkout fails without a result")


if __name__ == "__main__":
    main()
