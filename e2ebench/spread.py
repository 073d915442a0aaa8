#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 e2ebench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds)
for each workload and prints each run's metrics and wall time, then, per
end-to-end metric, the median and the distance between the first and third
quartiles as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound. Spreads above a third of the bound are flagged.
Exits nonzero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                      proc.returncode, proc.stderr[-2000:]))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("  seed %d (%.1f s): %s" % (seed, wall, " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in result["metrics"].items())))
        print("== %s (%d runs)" % (workload, args.runs))
        for metric in bench["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
            print("  %-18s median %-12.6g spread %.4f  bound %.2f%s" % (
                metric["name"], statistics.median(v), spread, metric["bound"],
                flag))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
