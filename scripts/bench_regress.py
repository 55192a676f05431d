#!/usr/bin/env python3
"""Compare fresh bench JSON artifacts against the committed BENCH_* baselines.

Each baseline file has a key spec: which keys are compared and how.

  time   fresh must not exceed baseline * ratio (wall clocks; higher = worse)
  rate   fresh must not fall below baseline * ratio (throughput / speedups)
  true   fresh must be exactly true (bit-identity and correctness oracles)
  eq     fresh must equal baseline exactly (deterministic counts/fingerprints)
  close  fresh must match baseline to ~1e-9 relative (deterministic floats)

Tolerance policy (see DESIGN.md §14): the bands are wide (2.5x / 0.4x by
default) because CI boxes are noisy and often single-core — the gate exists
to catch step-change regressions (a lost parallel path, an accidentally
quadratic loop, a broken identity), not 10% jitter. Deterministic outputs
(eq/close/true) have no band at all: any drift is a real behavior change
and should be reviewed, then re-baselined with scripts/bench_baseline.sh.

Keys not listed (including "meta") are ignored.

Usage:
  bench_regress.py --check [--baseline-dir DIR] [--fresh-dir DIR]
  bench_regress.py --self-test
"""

import argparse
import copy
import json
import os
import sys
import tempfile

TIME_RATIO = 2.5  # fresh wall time may be up to 2.5x the baseline
RATE_RATIO = 0.4  # fresh throughput/speedup may drop to 0.4x the baseline
CLOSE_REL = 1e-9

# file -> {json path ("a/b" for nesting): rule}
# rule is a kind string, or (kind, ratio) to override the default band.
SPECS = {
    "BENCH_model.json": {
        # The SIMD backend is part of the baseline's identity: comparing a
        # scalar run against an AVX2 baseline (or vice versa) would turn
        # real codegen differences into phantom regressions.
        "simd": "eq",
        "batch_size": "eq",
        "rounds": "eq",
        "threads": "eq",
        "threads_serial_pass": "eq",
        "index_bytes": "eq",
        "wall_s_1_thread": "time",
        "wall_s": "time",
        "evals_per_sec_1_thread": "rate",
        "evals_per_sec": "rate",
        "speedup_vs_1_thread": "rate",
        "demotion_ms_legacy": "time",
        "demotion_ms_index": "time",
        "demotion_speedup": "rate",
        "rebuild_ms": "time",
        # --scaling sweep (keyed rows, not an array: lookup() is path
        # based). Worker counts are deterministic; walls/rates get the
        # usual noise bands. t8 speedup is not gated — on a single-core
        # CI box oversubscription keeps it near 1.0 by design.
        "scaling/t1/threads": "eq",
        "scaling/t1/wall_s": "time",
        "scaling/t1/evals_per_sec": "rate",
        "scaling/t2/wall_s": "time",
        "scaling/t2/evals_per_sec": "rate",
        "scaling/t4/wall_s": "time",
        "scaling/t4/evals_per_sec": "rate",
        "scaling/t8/threads": "eq",
        "scaling/t8/wall_s": "time",
        "scaling/t8/evals_per_sec": "rate",
    },
    "BENCH_fig12_index.json": {
        "candidate_evaluations": "eq",
        # Final configuration + utility bit pattern: evaluation-path
        # speedups must leave the plan bit-identical.
        "result_fingerprint": "eq",
        "identical_result": "true",
        "wall_s": "time",
        "evals_per_sec": "rate",
    },
    "BENCH_pathloss.json": {
        "sectors": "eq",
        "tilts": "eq",
        "matrices": "eq",
        "grid_cells": "eq",
        "wall_s_legacy": "time",
        "wall_s_serial": "time",
        "wall_s_parallel": "time",
        "matrices_per_sec_parallel": "rate",
        "speedup_serial_vs_legacy": "rate",
        "speedup_parallel_vs_legacy": "rate",
        "wall_s_save_parallel": "time",
        "wall_s_load": "time",
        "entries_identical": "true",
        "files_identical": "true",
        "load_round_trip_ok": "true",
        "fidelity_mean_abs_db": "close",
        "fidelity_max_abs_db": "close",
        "coverage_disagree_frac": "close",
    },
    "BENCH_recovery.json": {
        "upgrades": "eq",
        "records_written": "eq",
        "crash_record": "eq",
        "resume_matches_baseline": "true",
        "campaign/completed": "true",
        "campaign/windows_total": "eq",
        "campaign/windows_completed": "eq",
        "campaign/resumes": "eq",
        "campaign/quarantine_events": "eq",
        "campaign/deadline_skips": "eq",
        "campaign/upgrades_completed": "eq",
        "campaign/upgrades_rolled_back": "eq",
    },
    "BENCH_streaming.json": {
        "sectors": "eq",
        "tilts": "eq",
        "matrices": "eq",
        # The file size is deterministic for fixed geometry, and so is
        # the coverage-index section it carries.
        "file_bytes_v3": "eq",
        "index_section_bytes": "eq",
        "file_growth_bytes": "eq",
        "wall_s_index_build": "time",
        "wall_s_index_bind": "time",
        "index_bind_identical": "true",
        "wall_s_load": "time",
        "wall_s_open_mapped": "time",
        "wall_s_first_touch_all": "time",
        # The headline: a mapped open reads header + directory, never the
        # planes, so it beats the eager load (open + touch all + copy) by
        # orders of magnitude.
        # The wide rate band absorbs machine noise; the hard >= 5x floor
        # is the bool below (also the bench's own exit code).
        "speedup_cold_open": "rate",
        "cold_open_speedup_ge_5x": "true",
        "mapped_equals_eager": "true",
        "identical_after_release": "true",
        "heap_bytes_full": "eq",
        "mapped_bytes": "eq",
        "fleet_markets": "eq",
        "fleet_fingerprint": "eq",
        "plans_identical_across_budgets": "true",
        "under_budget": "true",
        "floor_below_peak": "true",
        "plan_seconds_unbounded": "time",
        "plan_seconds_floor": "time",
        "plan_seconds_budgeted": "time",
        # Budget enforcement must keep streaming (rung-1 releases) in
        # play — zero releases would mean the budgeted passes fell
        # straight through to whole-market eviction.
        "releases_total": "eq",
        "fleet_peak_bytes": ("time", 1.5),
        "enforcement_floor_bytes": ("time", 1.5),
    },
    "BENCH_fleet.json": {
        "markets": "eq",
        "sectors_total": "eq",
        "upgrades_planned": "eq",
        "wave_windows": "eq",
        "crew_cap": "eq",
        "fleet_fingerprint": "eq",
        "plans_identical_under_eviction": "true",
        "plans_match_single_market": "true",
        # Execution runs the plans plan() made: no upgrade re-planned, and
        # carried plans execute byte-identically to re-planned ones.
        "plans_replanned": "eq",
        "execute_matches_replanned": "eq",
        # Pass A's warm-up acquires (the database builds on a fresh
        # db dir), kept out of plan_seconds_unbounded.
        "db_build_seconds": "time",
        "plan_seconds_unbounded": "time",
        "plan_seconds_capped": "time",
        "execute_seconds_capped": "time",
        "markets_per_second": "rate",
        "peak_resident_bytes": ("time", 1.5),
    },
}


def lookup(doc, path):
    node = doc
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_key(path, rule, base, fresh):
    """Returns (ok, note)."""
    kind, ratio = (rule, None) if isinstance(rule, str) else rule
    if base is None:
        return True, "absent in baseline (skipped)"
    if fresh is None:
        return False, "missing in fresh artifact"
    if kind == "true":
        return fresh is True, "must be true"
    if kind == "eq":
        return fresh == base, "must equal baseline"
    if kind == "close":
        denom = max(abs(base), 1e-30)
        return abs(fresh - base) <= CLOSE_REL * denom, "must match baseline"
    if kind == "time":
        limit = (ratio or TIME_RATIO)
        if base <= 0:
            return True, "baseline <= 0 (skipped)"
        return fresh <= base * limit, f"<= {limit:g}x baseline"
    if kind == "rate":
        limit = (ratio or RATE_RATIO)
        if base <= 0:
            return True, "baseline <= 0 (skipped)"
        return fresh >= base * limit, f">= {limit:g}x baseline"
    raise ValueError(f"unknown rule kind {kind!r} for {path}")


def fmt(value):
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def compare_file(name, base_doc, fresh_doc):
    """Returns (rows, failures) where rows are table tuples."""
    rows, failures = [], 0
    for path, rule in SPECS[name].items():
        base = lookup(base_doc, path)
        fresh = lookup(fresh_doc, path)
        ok, note = check_key(path, rule, base, fresh)
        delta = ""
        if (isinstance(base, (int, float)) and not isinstance(base, bool)
                and isinstance(fresh, (int, float))
                and not isinstance(fresh, bool) and base != 0):
            delta = f"{100.0 * (fresh - base) / base:+.1f}%"
        rows.append((path, fmt(base), fmt(fresh), delta,
                     "ok" if ok else f"FAIL ({note})"))
        failures += 0 if ok else 1
    return rows, failures


def print_table(name, rows):
    print(f"\n== {name}")
    widths = [max(len(r[i]) for r in rows + [HEADER]) for i in range(5)]
    for row in [HEADER] + rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


HEADER = ("key", "baseline", "fresh", "delta", "status")


def run_check(baseline_dir, fresh_dir):
    total_failures = 0
    checked = 0
    for name in sorted(SPECS):
        base_path = os.path.join(baseline_dir, name)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(base_path):
            print(f"== {name}: no committed baseline, skipped")
            continue
        if not os.path.exists(fresh_path):
            print(f"== {name}: FAIL — fresh artifact missing "
                  f"({fresh_path} not produced)")
            total_failures += 1
            continue
        with open(base_path) as f:
            base_doc = json.load(f)
        with open(fresh_path) as f:
            fresh_doc = json.load(f)
        rows, failures = compare_file(name, base_doc, fresh_doc)
        print_table(name, rows)
        total_failures += failures
        checked += 1
    print()
    if total_failures:
        print(f"bench regression check FAILED: {total_failures} violation(s)")
        return 1
    print(f"bench regression check OK: {checked} artifact(s) within bands")
    return 0


def run_self_test():
    """The gate must pass on identical artifacts and fail on regressions."""
    baseline = {
        "BENCH_model.json": {
            "meta": {"git_sha": "abc"},
            "simd": "avx2",
            "batch_size": 60, "rounds": 20, "threads": 8,
            "threads_serial_pass": 1, "index_bytes": 1000, "wall_s_1_thread": 1.0, "wall_s": 0.5,
            "evals_per_sec_1_thread": 100.0, "evals_per_sec": 200.0,
            "speedup_vs_1_thread": 2.0, "demotion_ms_legacy": 1.0,
            "demotion_ms_index": 0.2, "demotion_speedup": 5.0,
            "rebuild_ms": 1.0,
            "scaling": {
                "t1": {"threads": 1, "wall_s": 1.0,
                       "evals_per_sec": 100.0,
                       "speedup_vs_1_thread": 1.0},
                "t8": {"threads": 8, "wall_s": 0.5,
                       "evals_per_sec": 200.0,
                       "speedup_vs_1_thread": 2.0},
            },
        },
        "BENCH_pathloss.json": {
            "sectors": 9, "tilts": 5, "matrices": 45, "grid_cells": 100,
            "wall_s_legacy": 4.0, "wall_s_serial": 0.5,
            "wall_s_parallel": 0.4, "matrices_per_sec_parallel": 100.0,
            "speedup_serial_vs_legacy": 8.0,
            "speedup_parallel_vs_legacy": 10.0,
            "wall_s_save_parallel": 0.1, "wall_s_load": 0.2,
            "entries_identical": True, "files_identical": True,
            "load_round_trip_ok": True, "fidelity_mean_abs_db": 0.2,
            "fidelity_max_abs_db": 8.9, "coverage_disagree_frac": 0.005,
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        fresh_dir = os.path.join(tmp, "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        for name, doc in baseline.items():
            with open(os.path.join(base_dir, name), "w") as f:
                json.dump(doc, f)

        # Identical artifacts (plus noise inside the bands) must pass.
        for name, doc in baseline.items():
            noisy = copy.deepcopy(doc)
            if "wall_s" in noisy:
                noisy["wall_s"] *= 1.5          # inside the 2.5x band
            if "speedup_parallel_vs_legacy" in noisy:
                noisy["speedup_parallel_vs_legacy"] *= 0.6  # inside 0.4x
            with open(os.path.join(fresh_dir, name), "w") as f:
                json.dump(noisy, f)
        if run_check(base_dir, fresh_dir) != 0:
            print("self-test FAILED: in-band artifacts were rejected")
            return 1

        # Synthetically regressed artifacts must fail: a wall-time blowup,
        # a collapsed speedup, a broken identity bool, and a drifted
        # deterministic count.
        regressed = copy.deepcopy(baseline)
        regressed["BENCH_model.json"]["wall_s"] = 5.0          # 10x slower
        regressed["BENCH_model.json"]["demotion_speedup"] = 1.0  # collapsed
        regressed["BENCH_model.json"]["simd"] = "scalar"  # backend mismatch
        regressed["BENCH_model.json"]["scaling"]["t1"]["wall_s"] = 9.0
        regressed["BENCH_pathloss.json"]["files_identical"] = False
        regressed["BENCH_pathloss.json"]["matrices"] = 44
        for name, doc in regressed.items():
            with open(os.path.join(fresh_dir, name), "w") as f:
                json.dump(doc, f)
        if run_check(base_dir, fresh_dir) == 0:
            print("self-test FAILED: regressed artifacts were accepted")
            return 1
    print("self-test OK: bands accept noise and reject regressions")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare fresh artifacts against baselines")
    mode.add_argument("--self-test", action="store_true",
                      help="verify the gate itself accepts noise and "
                           "rejects synthetic regressions")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--fresh-dir", default=None, required=False,
                        help="directory holding freshly produced artifacts")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if not args.fresh_dir:
        parser.error("--check requires --fresh-dir")
    return run_check(args.baseline_dir, args.fresh_dir)


if __name__ == "__main__":
    sys.exit(main())
