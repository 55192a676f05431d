#!/usr/bin/env bash
# Records the model-kernel performance baseline as committed JSON artifacts,
# or (--check) re-runs the benches and diffs the fresh artifacts against
# the committed ones through scripts/bench_regress.py.
#
# Runs the micro-model benchmark (which times the full rebuild and the
# demotion workload on a bound model against an unbound one, and reports
# both), the Figure 12 convergence bench, the path-loss build bench (legacy
# per-cell kernel vs batched serial vs batched parallel at 8 threads), the
# streaming, recovery and fleet benches, so the BENCH_*.json artifacts
# together capture the performance picture for the current commit.
#
# The parallel passes pin --threads 8 explicitly: --threads 0 resolves to
# the hardware concurrency, which on a single-core CI box silently turns
# the "parallel" pass into a second serial pass (that is how an earlier
# BENCH_model.json got committed with threads:1 and a 1.0x "speedup").
# Oversubscribing one core with 8 workers still exercises the parallel
# code path and keeps the artifact comparable across machines.
#
# Usage: scripts/bench_baseline.sh [--check] [build-dir] (default: build)
#   (record mode overwrites BENCH_*.json in the repo root; check mode
#    writes to a temp dir and exits nonzero on regression)
set -euo pipefail

cd "$(dirname "$0")/.."

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
  shift
fi
BUILD_DIR="${1:-build}"

for bin in bench_micro_model bench_fig12_convergence bench_pathloss_build \
           bench_pathloss_open bench_fault_recovery bench_fleet_campaign; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

out_dir=.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
if (( check )); then
  out_dir="$scratch/fresh"
  mkdir -p "$out_dir"
  echo "== check mode: fresh artifacts in $out_dir, diffed against ./BENCH_*.json =="
fi

echo "== micro-model kernels (rebuild, demotion, thread scaling; one artifact) =="
"$BUILD_DIR/bench/bench_micro_model" --threads 8 --scaling \
  --benchmark_filter='BM_DemotionRebuild|BM_FullRebuild|BM_UtilityEvaluation|BM_ProbeCycle|BM_TiltProbeCycle|BM_LinearTwin' \
  --json "$out_dir/BENCH_model.json"

echo "== fig12 convergence, coverage index =="
"$BUILD_DIR/bench/bench_fig12_convergence" \
  --json "$out_dir/BENCH_fig12_index.json" >/dev/null

echo "== path-loss build pipeline (legacy vs batched, 8 threads) =="
"$BUILD_DIR/bench/bench_pathloss_build" --threads 8 \
  --json "$out_dir/BENCH_pathloss.json"

echo "== cold-open streaming (eager load vs mapped open, budget sweep) =="
streaming_db="$scratch/streaming_db"
"$BUILD_DIR/bench/bench_pathloss_open" --threads 8 --db-dir "$streaming_db" \
  --json "$out_dir/BENCH_streaming.json"

echo "== crash-safe campaign execution (journal, resume, quarantine) =="
"$BUILD_DIR/bench/bench_fault_recovery" \
  --json "$out_dir/BENCH_recovery.json" >/dev/null

echo "== fleet campaign (100 markets through the byte-budgeted store) =="
fleet_db="$scratch/fleet_db"
"$BUILD_DIR/bench/bench_fleet_campaign" --db-dir "$fleet_db" \
  --json "$out_dir/BENCH_fleet.json" >/dev/null

if (( check )); then
  python3 scripts/bench_regress.py --check --baseline-dir . \
    --fresh-dir "$out_dir"
  exit $?
fi

# Provenance: a binary stamps meta.git_sha when its build tree was
# configured, which may be several commits back. Stamp what was actually
# measured: the HEAD the tree sits on, whether it had uncommitted changes,
# and a sha256 over src/ and bench/ (perfbench/run.py's source_digest
# recipe: relative path + bytes of every .h/.cpp/.txt/.py file, sorted).
python3 - <<'PY'
import hashlib, json, subprocess
from pathlib import Path

def git(*args):
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except OSError:
        return ""

digest = hashlib.sha256()
root = Path.cwd()
for base in (root / "src", root / "bench"):
    for path in sorted(base.rglob("*")):
        if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
sha = git("rev-parse", "--short", "HEAD") or "unknown"
dirty = bool(git("status", "--porcelain", "--",
                 "src", "bench", "CMakeLists.txt"))
for name in ("BENCH_model.json", "BENCH_fig12_index.json",
             "BENCH_pathloss.json", "BENCH_streaming.json",
             "BENCH_recovery.json", "BENCH_fleet.json"):
    path = Path(name)
    data = json.loads(path.read_text())
    meta = data.setdefault("meta", {})
    meta["git_sha"] = sha
    meta["git_dirty"] = dirty
    meta["source_digest"] = digest.hexdigest()[:16]
    path.write_text(json.dumps(data, indent=2) + "\n")
PY

echo
echo "Artifacts: BENCH_model.json BENCH_fig12_index.json BENCH_pathloss.json BENCH_streaming.json BENCH_recovery.json BENCH_fleet.json"
python3 - <<'PY' 2>/dev/null || true
import json
m = json.load(open('BENCH_model.json'))
print(f"simd backend: {m.get('simd', 'unknown')}")
print(f"parallel pass threads: {m['threads']} "
      f"(speedup vs 1 thread: {m['speedup_vs_1_thread']:.2f}x)")
for key, row in sorted(m.get('scaling', {}).items()):
    print(f"  scaling {key}: {row['evals_per_sec']:.1f} evals/s "
          f"({row['speedup_vs_1_thread']:.2f}x)")
print(f"demotion speedup (index vs legacy): {m['demotion_speedup']:.2f}x")
print(f"full rebuild: {m['rebuild_ms']:.2f} ms")
print(f"index bytes: {m['index_bytes']}")
p = json.load(open('BENCH_pathloss.json'))
print(f"path-loss build speedup (parallel vs legacy): "
      f"{p['speedup_parallel_vs_legacy']:.2f}x "
      f"(identical: {p['entries_identical'] and p['files_identical']})")
s = json.load(open('BENCH_streaming.json'))
print(f"cold open speedup (mapped open vs eager load): "
      f"{s['speedup_cold_open']:.0f}x (>=5x: {s['cold_open_speedup_ge_5x']}), "
      f"budget sweep identical: {s['plans_identical_across_budgets']}, "
      f"under budget: {s['under_budget']}")
r = json.load(open('BENCH_recovery.json'))
c = r['campaign']
print(f"campaign crash/resume: windows {c['windows_completed']}/"
      f"{c['windows_total']}, resumes {c['resumes']}, "
      f"quarantines {c['quarantine_events']}, "
      f"deadline skips {c['deadline_skips']}, "
      f"resume matches baseline: {r['resume_matches_baseline']}")
f = json.load(open('BENCH_fleet.json'))
print(f"fleet: {f['markets']} markets / {f['sectors_total']} sectors, "
      f"{f['db_build_seconds']:.2f} s database warm-up, "
      f"{f['markets_per_second']:.2f} markets/s, "
      f"{f['store_capped']['evictions']} evictions, "
      f"identical under eviction: {f['plans_identical_under_eviction']}, "
      f"matches single-market: {f['plans_match_single_market']}")
PY
