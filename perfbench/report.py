#!/usr/bin/env python3
"""Prints every metric of every workload by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds N] [--workloads a,b]

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds. For each workload it makes one untraced run
(the end-to-end metrics) and one traced run (the per-layer metrics and the
per-layer self-time table) through perfbench/run.py. Exits nonzero when a
run fails or an output check fails (a result with "correct": false).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("market_joint", "fleet_wave", "campaign_resume")


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (result dict or None, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(Path("BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            result, lines = run_once(workload, args.seed, args.seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind} ==")
            if result is None:
                print("run failed")
                ok = False
                continue
            for line in lines:
                if not line.startswith("meta: "):
                    print(line)
            for name, metric in result["metrics"].items():
                print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
            print(f"  correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}")
            ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
