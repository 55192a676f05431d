#!/usr/bin/env bash
# Full verification: a dead-module check (every src/ header has an
# includer outside tests/), regular build + tests, a perf smoke of the
# coverage index against the legacy scan (fails if the index is slower), the
# path-loss database tool smoke (generate / info / verify, the stored
# coverage index checked and equal to a fresh build, and a torn v3 file
# that verify must report),
# the profiler attribution smoke (--profile report invariants), the bench
# regression gate (bench_regress.py self-test, plus a full re-run diffed
# against the committed BENCH_*.json baselines in the non-fast pass), the
# SIMD matrix leg (a MAGUS_SIMD=OFF build running the same suite on the
# scalar backend — the bit-identity contract's other lane width), the
# same test suite under ASan+UBSan (the Sanitize build type / "sanitize"
# CMake preset), and the thread-pool / parallel-evaluation tests under
# ThreadSanitizer (the Tsan build type / "tsan" preset; TSan cannot be
# combined with ASan, hence its own tree).
#
#   scripts/verify.sh            # all three passes
#   scripts/verify.sh --fast     # regular pass only, skipping `slow`-labeled
#                                # tests (crash-injection harness, journal
#                                # byte-offset fuzz, integration suites)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> Dead-module check: every src/ header has a non-test includer"
# A header that nothing outside tests/ includes (its own .cpp aside) is a
# module nothing runs. The one exception is the small-case search oracle,
# which only tests include by design.
python3 - <<'EOF'
import pathlib, re, subprocess, sys
allowed = {"core/brute_force.h"}
files = subprocess.run(
    ["git", "ls-files", "--cached", "--others", "--exclude-standard",
     "*.h", "*.cpp"], capture_output=True, text=True, check=True
).stdout.split()
include = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
includers = {}
for f in files:
    if pathlib.Path(f).exists():
        for target in include.findall(pathlib.Path(f).read_text()):
            includers.setdefault(target, set()).add(f)
headers = [f for f in files if f.startswith("src/") and f.endswith(".h")]
dead = []
for f in headers:
    header = f[len("src/"):]
    users = {u for u in includers.get(header, ())
             if not u.startswith("tests/") and u != f[:-2] + ".cpp"}
    if not users and header not in allowed:
        dead.append(f)
if dead:
    sys.exit("dead modules (no includer outside tests/ but their own "
             ".cpp): " + ", ".join(dead))
print(f"dead-module check OK: {len(headers)} headers")
EOF

echo "==> Regular build + tests (RelWithDebInfo, warnings are errors)"
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$jobs"
ctest_args=()
(( fast )) && ctest_args+=(-LE slow)
ctest --test-dir build --output-on-failure -j "$jobs" "${ctest_args[@]}"

echo "==> Observability artifacts (--json --metrics --trace)"
artifacts=$(mktemp -d)
trap 'rm -rf "$artifacts"' EXIT
./build/bench/bench_fig12_convergence --threads 2 \
  --json "$artifacts/summary.json" \
  --metrics "$artifacts/metrics.json" \
  --trace "$artifacts/trace.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
d = sys.argv[1]
summary = json.load(open(f"{d}/summary.json"))
assert summary["candidate_evaluations"] > 0, "empty bench summary"
metrics = json.load(open(f"{d}/metrics.json"))
assert metrics["counters"]["evaluator.evals"] > 0, "no evaluator metrics"
assert any(k.startswith("evaluator.worker.") for k in metrics["counters"]), \
    "no per-worker counters"
# Joint tuning tilts sectors away from the indexed tilt, so the off-index
# fallback health counter must be present and nonzero.
assert metrics["counters"].get("model.kernel.offindex_recomputes", 0) > 0, \
    "no off-index fallback counter"
# The CQI pass decides nearly every cell without libm: both counters must
# be listed, and at most 1e-3 of the classified cells may need log10.
cqi_cells = metrics["counters"].get("model.kernel.cqi_cells", 0)
cqi_exact = metrics["counters"].get("model.kernel.cqi_exact_cells")
assert cqi_cells > 0 and cqi_exact is not None, "no CQI kernel counters"
assert cqi_exact <= 1e-3 * cqi_cells, \
    f"CQI libm share too high: {cqi_exact}/{cqi_cells}"
# The CQI memo must keep at least half of the classified cells: searches
# move one sector at a time, and most cells' SINR moves far less than
# their distance to a CQI edge.
cqi_memo = metrics["counters"].get("model.kernel.cqi_memo_cells")
assert cqi_memo is not None, "no CQI memo counter"
assert cqi_memo >= 0.5 * cqi_cells, \
    f"CQI memo share too low: {cqi_memo}/{cqi_cells}"
# Every footprint's dB -> linear twin is a guarded vector kernel: libm
# decides only the lanes near a float rounding midpoint, at most 1e-3 of
# the covered cells.
linear_cells = metrics["counters"].get("pathloss.linear.cells", 0)
linear_exact = metrics["counters"].get("pathloss.linear.exact_cells")
assert linear_cells > 0 and linear_exact is not None, \
    "no linear-twin counters"
assert linear_exact <= 1e-3 * linear_cells, \
    f"linear-twin libm share too high: {linear_exact}/{linear_cells}"
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
assert events, "empty trace"
cats = {e["cat"] for e in events}
assert {"planner", "evaluator", "model"} <= cats, f"missing subsystems: {cats}"
print(f"artifacts OK: {len(events)} trace events, "
      f"{len(metrics['counters'])} counters, "
      f"CQI libm share {cqi_exact / cqi_cells:.1e}, "
      f"memo share {cqi_memo / cqi_cells:.2f}, "
      f"linear-twin libm share {linear_exact / linear_cells:.1e}")
EOF

echo "==> Perf smoke: coverage index vs legacy demotion workload"
./build/bench/bench_micro_model \
  --benchmark_filter='PerfSmokeSummaryOnly' \
  --json "$artifacts/model.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
m = json.load(open(f"{sys.argv[1]}/model.json"))
speedup = m["demotion_speedup"]
assert speedup >= 1.0, (
    f"coverage index slower than legacy scan: {speedup:.2f}x demotion")
print(f"perf smoke OK: demotion {speedup:.2f}x, "
      f"rebuild {m['rebuild_ms']:.2f} ms, "
      f"index {m['index_bytes']} bytes")
EOF

echo "==> Perf smoke: path-loss build pipeline vs legacy kernel"
./build/bench/bench_pathloss_build --region-km 6 --study-km 3 --threads 4 \
  --json "$artifacts/pathloss.json" \
  --metrics "$artifacts/pathloss_metrics.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
p = json.load(open(f"{sys.argv[1]}/pathloss.json"))
speedup = p["speedup_parallel_vs_legacy"]
assert speedup >= 1.0, (
    f"parallel path-loss build slower than legacy serial: {speedup:.2f}x")
assert p["entries_identical"], "serial/parallel footprints differ bitwise"
assert p["files_identical"], "serial/parallel saved databases differ"
assert p["load_round_trip_ok"], "parallel load round trip failed"
m = json.load(open(f"{sys.argv[1]}/pathloss_metrics.json"))
assert m["counters"]["pathloss.build.matrices"] > 0, "no build metrics"
print(f"perf smoke OK: path-loss build {speedup:.2f}x vs legacy, "
      f"{p['matrices']} matrices, "
      f"{m['counters']['pathloss.build.matrices']} counted")
EOF

echo "==> Fleet smoke: byte-budgeted multi-market planning"
# A small fleet through the MarketStore + WavePlanner stack: the byte
# budget must actually evict, and neither eviction/reload nor the store
# path itself may change any market's plan (fingerprint identity against
# the unconstrained run and the standalone single-market planner).
./build/bench/bench_fleet_campaign --markets 12 --region-km 3 --study-km 2 \
  --replan 4 --samples 2 --db-dir "$artifacts/fleet_db" \
  --json "$artifacts/fleet.json" \
  --metrics "$artifacts/fleet_metrics.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
f = json.load(open(f"{sys.argv[1]}/fleet.json"))
assert f["store_capped"]["evictions"] > 0, "byte budget never evicted"
assert f["plans_identical_under_eviction"], "eviction changed a market's plan"
assert f["plans_match_single_market"], \
    "fleet path diverged from the single-market planner"
assert f["plans_replanned"] == 0, \
    f"fault-free execute re-planned {f['plans_replanned']} upgrades"
assert f["execute_matches_replanned"], \
    "carried plans executed differently from re-planned ones"
m = json.load(open(f"{sys.argv[1]}/fleet_metrics.json"))
assert m["counters"]["fleet.store.evictions"] > 0, "no store metrics"
print(f"fleet smoke OK: {f['markets']} markets / {f['sectors_total']} "
      f"sectors, {f['store_capped']['evictions']} evictions, "
      f"plans identical under eviction, execute ran the carried plans")
EOF

echo "==> Streaming smoke: v3 mmap cold open + footprint-granular residency"
# The zero-copy path's contract, end to end: a mapped open must beat the
# eager load (open + touch all + copy) >= 5x cold, mapped windows must be
# bit-identical to the eager load (including across a release/re-touch
# cycle), and a
# budget-capped fleet sweep must keep the enforced resident peak at or
# under the budget line while planning to the exact unbounded
# fingerprints. The second run pins MAGUS_NO_MMAP=1 — the positioned-read
# fallback must deliver the same invariants and the same fleet
# fingerprint, so the portability lane never drifts from the mmap lane.
streaming_args=(--region-km 6 --study-km 3 --tilts 3 --reps 2
                --fleet-markets 3 --threads 4)
./build/bench/bench_pathloss_open "${streaming_args[@]}" \
  --db-dir "$artifacts/streaming_db" \
  --json "$artifacts/streaming.json" >/dev/null
MAGUS_NO_MMAP=1 ./build/bench/bench_pathloss_open "${streaming_args[@]}" \
  --db-dir "$artifacts/streaming_db_nommap" \
  --json "$artifacts/streaming_nommap.json" >/dev/null
python3 - "$artifacts" <<'EOF'
import json, sys
d = sys.argv[1]
s = json.load(open(f"{d}/streaming.json"))
n = json.load(open(f"{d}/streaming_nommap.json"))
assert s["using_mmap"], "mmap leg fell back to positioned reads"
assert not n["using_mmap"], "MAGUS_NO_MMAP=1 leg still mmap'd"
for name, run in (("mmap", s), ("no-mmap", n)):
    assert run["cold_open_speedup_ge_5x"], (
        f"{name}: cold open only {run['speedup_cold_open']:.1f}x vs eager load")
    assert run["mapped_equals_eager"], f"{name}: windows differ from eager"
    assert run["identical_after_release"], (
        f"{name}: release/re-touch changed a window")
    assert run["plans_identical_across_budgets"], (
        f"{name}: budget changed a market's plan")
    assert run["under_budget"], f"{name}: enforced peak exceeded the budget"
    assert run["releases_total"] > 0, f"{name}: no footprint releases"
assert s["fleet_fingerprint"] == n["fleet_fingerprint"], (
    "mmap and positioned-read providers planned different fleets")
print(f"streaming smoke OK: cold open {s['speedup_cold_open']:.0f}x "
      f"(no-mmap {n['speedup_cold_open']:.0f}x), "
      f"{s['releases_total']} releases, enforced peak "
      f"{s['enforced_peak_budgeted'] / 2**20:.1f} MiB <= budget "
      f"{s['budget_bytes'] / 2**20:.1f} MiB, fingerprints match")
EOF

echo "==> Tool smoke: pathloss_db_tool generate / info / verify"
# generate writes v3 with its coverage-index section, info reads the
# header, directory and section header, verify checks every tilt-0 matrix
# against a fresh build (same --seed / --region-km) and the stored index
# against one built from the file's footprints.
tool=./build/examples/pathloss_db_tool
"$tool" --mode generate --db "$artifacts/tool.pldb" --region-km 3 >/dev/null
info=$("$tool" --mode info --db "$artifacts/tool.pldb")
grep -q "format: v3" <<<"$info" || { echo "generated file is not v3"; exit 1; }
grep -q "coverage index: .* entries over" <<<"$info" ||
  { echo "info shows no coverage-index section: $info"; exit 1; }
verified=$("$tool" --mode verify --db "$artifacts/tool.pldb" --region-km 3)
grep -q "Coverage index: checked, equals" <<<"$verified" ||
  { echo "stored coverage index not verified: $verified"; exit 1; }
# A generate output cut by 100 bytes is a torn payload: verify must report
# the open's error and exit 1.
size=$(stat -c %s "$artifacts/tool.pldb")
head -c $(( size - 100 )) "$artifacts/tool.pldb" > "$artifacts/torn.pldb"
set +e
torn=$("$tool" --mode verify --db "$artifacts/torn.pldb" --region-km 3 2>&1)
torn_status=$?
set -e
[[ $torn_status -eq 1 ]] || { echo "torn verify exit $torn_status"; exit 1; }
grep -q "torn payload" <<<"$torn" || { echo "torn file misreported: $torn"; exit 1; }
echo "tool smoke OK: generate/info/verify exit 0, stored index equals a" \
  "fresh build, torn v3 reported"

echo "==> Profiler smoke: --profile attribution report"
# The profile run reuses the micro-model summary workload (serial +
# batch-scoring sweep), oversubscribed at 4 workers per hardware thread.
# The report must parse, every worker's buckets must sum to its wall span
# within 1%, the critical path must cover the root phase's makespan within
# 5%, and on worker threads the top sink must be a wait state, not compute
# (4 workers timesharing each core cannot be compute-bound on all of them).
profile_threads=$(( 4 * jobs ))
./build/bench/bench_micro_model --threads "$profile_threads" \
  --benchmark_filter='PerfSmokeSummaryOnly' \
  --json "$artifacts/profile_model.json" \
  --profile "$artifacts/profile.json" >/dev/null
python3 - "$artifacts" "$profile_threads" <<'EOF'
import json, sys
d = sys.argv[1]
want = int(sys.argv[2])
r = json.load(open(f"{d}/profile.json"))
assert r["thread_count"] >= want, (
    f"expected >={want} threads, got {r['thread_count']}")
assert r["span_count"] > 0, "empty profile"
for w in r["workers"]:
    total = sum(w["bucket_us"].values())
    wall = w["wall_us"]
    assert abs(total - wall) <= 0.01 * max(wall, 1e-9), (
        f"t{w['thread']}: buckets sum {total:.1f}us vs wall {wall:.1f}us")
assert r["makespan_us"] > 0, "no root phase"
assert abs(r["critical_path_us"] - r["makespan_us"]) <= 0.05 * r["makespan_us"], (
    f"critical path {r['critical_path_us']:.0f}us vs "
    f"makespan {r['makespan_us']:.0f}us")
assert r["critical_path"], "empty critical path"
assert r["top_time_sink"] in {"queue_wait", "barrier", "lock_wait", "db_io"}, (
    f"top sink should be a wait state here, got {r['top_time_sink']}")
assert r["meta"]["timestamp_utc"].endswith("Z"), "missing run metadata"
folded = open(f"{d}/profile.json.folded").read().splitlines()
assert folded, "empty folded stacks"
for line in folded:
    stack, count = line.rsplit(" ", 1)
    assert stack.startswith("t") and int(count) > 0, f"bad folded line: {line}"
summary = json.load(open(f"{d}/profile_model.json"))
assert summary["meta"]["git_sha"], "bench summary missing run metadata"
print(f"profiler OK: {r['thread_count']} threads, "
      f"{r['span_count']} spans, top sink {r['top_time_sink']}, "
      f"critical path {len(r['critical_path'])} steps "
      f"({100 * r['critical_path_us'] / r['makespan_us']:.1f}% of makespan), "
      f"{len(folded)} folded stacks")
EOF

echo "==> Bench regression gate: self-test"
python3 scripts/bench_regress.py --self-test >/dev/null
echo "regression gate self-test OK"

if (( fast )); then
  echo "==> Skipping bench regression check + sanitizer pass (--fast)"
  exit 0
fi

echo "==> Bench regression check against committed baselines"
scripts/bench_baseline.sh --check build

echo "==> SIMD matrix: MAGUS_SIMD=OFF build + tests (scalar backend)"
# The SIMD layer promises bitwise-identical results at every lane width.
# One leg of that promise is checked here: the whole suite (identity tests
# included) must pass with the vector backends compiled out. The other leg
# — the best native backend — is the regular build above; the sanitizer
# pass below re-runs the identity tests under ASan+UBSan on that backend.
cmake -B build-simd-off -S . -DMAGUS_SIMD=OFF >/dev/null
cmake --build build-simd-off -j "$jobs"
ctest --test-dir build-simd-off --output-on-failure -j "$jobs" -LE slow

echo "==> Sanitizer build + tests (ASan + UBSan)"
cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Sanitize >/dev/null
cmake --build build-sanitize -j "$jobs"
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ctest --test-dir build-sanitize --output-on-failure -j "$jobs"

echo "==> Crash-injection harness under ASan + UBSan"
# The crash-safety oracle: kill the executor / campaign runner at every
# journal record boundary, resume from the write-ahead log, and fail on
# any divergence from the uninterrupted run (trace, final configuration,
# or a re-pushed confirmed step). The journal fuzz (truncation at every
# byte offset) and the path-loss file's coverage-index section sweep
# (byte flips, page cuts, payload_end moved) ride along in the same
# filter.
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  ./build-sanitize/tests/magus_tests \
    --gtest_filter='RecoveryTest.*:CampaignTest.*:JournalTest.*:IndexSectionFuzz.*'

echo "==> ThreadSanitizer build + parallel tests (TSan)"
# magus_parallel_tests includes exec_recovery_parallel_test: the campaign
# runner's crash/resume path on a multi-threaded planner pool.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan >/dev/null
cmake --build build-tsan -j "$jobs" --target magus_parallel_tests
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/magus_parallel_tests

echo "==> verify OK"
