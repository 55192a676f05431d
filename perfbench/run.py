#!/usr/bin/env python3
"""End-to-end upgrade benchmark: one run of one workload.

    python3 perfbench/run.py --workload market_joint --seed 1 --seconds 8 --trace 0

Run from the repository root. Builds perfbench_e2e (perfbench/CMakeLists.txt,
into .bench_build), generates the workload's inputs from --seed in fresh
directories under .bench_work, measures for --seconds and prints, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports BENCHMARK.json's end_to_end metrics; set-up runs at least
three times (more, up to 15, while they total under five seconds), each
into a fresh directory, and setup_s is their median. --trace 1
reports the per_layer metrics and prints the per-layer self-time table
(trace spans go to .bench_out/). Metric names and units come from
BENCHMARK.json. Exits nonzero, without a result line, when the build or a
phase fails to run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("market_joint", "fleet_wave", "campaign_resume")
LAYERS = ("pathloss", "model", "core", "sim", "traffic", "exec", "fleet")
SETUP_REPEATS = (3, 15)   # min, max set-ups of an untraced run
SETUP_TOTAL_S = 5.0       # below this total, set up again (cheap set-ups)
BUILD_DEADLINE_S = 700    # configure + build, first run of a checkout
RUN_DEADLINE_S = 170      # set-ups + measurement, after the build
BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds perfbench_e2e; returns its path."""
    deadline = time.monotonic() + BUILD_DEADLINE_S
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_e2e", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=out, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build did not finish: {error}")
            if code != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")
    return build_dir / "perfbench_e2e"


def phase(binary, args, out_path, deadline):
    """Runs one phase of perfbench_e2e and returns its result JSON."""
    try:
        code = subprocess.run([str(binary), *args, "--out", str(out_path)],
                              timeout=max(1.0, deadline - time.monotonic())
                              ).returncode
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"{args[1]} phase did not finish: {error}")
    if code != 0:
        fail(f"{args[1]} phase exited with {code}")
    return json.loads(out_path.read_text())


def source_digest():
    """sha256 over the library and benchmark sources: identifies the build
    where no git metadata is available."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def layer_table(metrics):
    """Per-layer self time, residual and tracing overhead of a traced run."""
    wall = metrics["trace.wall_s"]
    rows = [(layer, metrics[f"{layer}.self_s"]) for layer in LAYERS]
    rows.append(("residual_s", metrics["trace.residual_s"]))
    lines = [f"{'layer':<12}{'self_s/op':>12}{'share':>9}"]
    for name, seconds in rows:
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{name:<12}{seconds:>12.4f}{share:>9.1%}")
    lines.append(f"{'wall':<12}{wall:>12.4f}{1:>9.1%}")
    lines.append(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s/op "
                 "(traced - untraced op wall)")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src").is_dir():
        fail("the library sources (src/) are missing")

    build_dir = ROOT / ".bench_build"
    binary = build(build_dir)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # Every set-up writes into a fresh directory; the run uses the last.
        setups = []
        least, most = (1, 1) if args.trace else SETUP_REPEATS
        while len(setups) < least or (
                len(setups) < most
                and sum(s["setup_s"] for s in setups) < SETUP_TOTAL_S):
            i = len(setups)
            setup_dir = work / f"setup{i}"
            if setups:
                shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)
            setups.append(phase(binary, ["--phase", "setup", *common,
                                         "--dir", str(setup_dir)],
                                work / f"setup{i}.json", deadline))
        run_args = ["--phase", "run", *common, "--dir", str(setup_dir),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.workload == "fleet_wave":
            run_args += ["--fleet-peak-bytes", str(setups[-1]["fleet_peak_bytes"]),
                         "--fleet-fingerprint", setups[-1]["fleet_fingerprint"]]
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        if args.trace:
            run_args += ["--trace-out", str(trace_path)]
        result = phase(binary, run_args, work / "run.json", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            fail(f"perfbench_e2e reported no {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]],
                                   "unit": metric["unit"]}

    meta = dict(result["meta"])
    meta.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "build_type": build_type(build_dir),
                 "git_sha": git_sha(), "source_digest": source_digest(),
                 "setup_walls_s": [s["setup_s"] for s in setups],
                 "op_walls_s": result["op_walls_s"]})
    report = {"meta": meta, "errors": result["errors"], "metrics": metrics}
    (out_dir / f"result-{args.workload}-{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(report, indent=2) + "\n")

    print("meta: " + json.dumps(meta))
    for error in result["errors"]:
        print(f"check failed: {error}")
    if args.trace:
        print(layer_table(measured))
        print(f"spans: {trace_path.relative_to(ROOT)}")
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
