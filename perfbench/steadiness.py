#!/usr/bin/env python3
"""Checks that two sets of runs of the same build agree within the bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--sets 2]

Run from the repository root. Each set runs every workload --runs times
untraced, one seed per run (set k uses seeds k*1000+1 .. k*1000+runs). Per
workload and end-to-end metric it prints each set's median and spread (the
distance between the first and third quartile, as a share of the median)
and checks what BENCHMARK.json promises: every spread but setup_s's stays
within the metric's bound, and no later set's median - setup_s's too - is
worse than the first's by more than the bound. setup_s's spread is printed
and flagged, not failed: campaign_resume's set-up takes under 0.1 s, and
all of a run's set-ups can land in one of the shared host's slow spells.
It also prints the mean wall time of one run (set-up and build included).
Exits nonzero when a check fails.
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from report import WORKLOADS, run_once


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (later - first) if better == "lower" else (first - later)
    return delta / abs(first)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        walls = []
        for k in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for run in range(args.runs):
                start = time.monotonic()
                result, _ = run_once(workload, k * 1000 + run + 1, seconds, 0)
                walls.append(time.monotonic() - start)
                if result is None or not result["correct"]:
                    print(f"{workload}: set {k} run {run} failed")
                    ok = False
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"== {workload} == (mean run wall "
              f"{statistics.mean(walls):.1f} s)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            for k, values in enumerate(sets):
                series = values[name]
                if len(series) < 2:
                    ok = False
                    cells.append("n/a")
                    continue
                s = spread(series)
                med = statistics.median(series)
                verdict = ""
                if s > bound:
                    verdict = " SPREAD>BOUND"
                    ok = ok and name == "setup_s"
                if k > 0 and len(sets[0][name]) >= 2:
                    drift = worse_by(statistics.median(sets[0][name]), med,
                                     metric["better"])
                    if drift > bound:
                        verdict, ok = verdict + " DRIFT>BOUND", False
                cells.append(f"med {med:.6g} spread {s:6.1%}{verdict}")
            print(f"  {name:<18} bound {bound:4.0%}  " + " | ".join(cells))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
