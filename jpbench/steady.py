"""Steadiness check: how far the end-to-end metrics spread between runs.

Run from the repository root::

    python3 jpbench/steady.py --workload sunflow-lossy --workload stream-resume \\
        --runs 10 --seconds 12

Each workload is run ``--runs`` times with seeds 1, 2, ...; the runs of
all workloads alternate, so slow phases of the machine fall on every
workload alike.  For each workload and end-to-end metric it prints the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them), the spread (distance between the quartiles as a share of the
median) and the metric's bound from ``BENCHMARK.json``.  It also splits
each workload's runs into two alternating sets and prints how far the
second set's median lies from the first's, as a share of the first
("B vs A"): the comparison a regression check makes between two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    wall = time.perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(
            "%s seed %d exited %d:\n%s"
            % (workload, seed, completed.returncode, completed.stderr)
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def report(workload, runs, bounds):
    print("== %s: %d runs, wall %.0f-%.0f s" % (
        workload, len(runs), min(r["wall_s"] for r in runs),
        max(r["wall_s"] for r in runs)))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("   correct: %s   failed/attempted: %s" % (
        all(r["correct"] for r in runs), sorted(shares)))
    print("   %-20s %12s %12s %12s %8s %7s %6s %9s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "steady", "B vs A"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        middle, q1, q3, spread = summarise(values)
        first = statistics.median(values[0::2])
        second = statistics.median(values[1::2])
        print("   %-20s %12.5g %12.5g %12.5g %8.4f %7.3f %6s %+9.4f" % (
            name, middle, q1, q3, spread, bound,
            "yes" if spread <= bound / 3 else "NO",
            (second - first) / first if first else 0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", default=None, help="also write the raw results here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    results = {workload: [] for workload in args.workload}
    for index in range(args.runs):
        for workload in args.workload:
            seed = 1 + index
            result = run_once(workload, seed, seconds, 0)
            results[workload].append(result)
            print("run %-22s seed %-4d %5.1f s  %s" % (
                workload, seed, result["wall_s"],
                " ".join("%s=%.4g" % (name, result["metrics"][name]["value"])
                         for name in bounds)), flush=True)
    for workload in args.workload:
        report(workload, results[workload], bounds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
