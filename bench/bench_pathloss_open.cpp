// Cold-open streaming bench: what the v3 mmap path buys at market
// acquisition time, and what footprint-granular residency buys a
// budget-capped fleet.
//
// Part 1 — one market's v3 database, two cold-open paths:
//   eager load:  PathLossDatabase::load — a mapped open, then every entry
//                touched (checksummed, linear twin computed) and copied
//                into owned footprints,
//   mapped open: MappedPathLossDatabase — header + directory only; gain
//                planes stay on disk until first touch.
// The headline is speedup_cold_open = eager load / mapped open (gated
// >= 5x). First-touch materialization of *every* entry is timed
// separately — that is the amortized cost ceiling a lazy open defers,
// and in a fleet sweep most of it is never paid. Bitwise identity of the
// mapped windows against the eager load — including across a
// release_residency()/re-touch cycle — is asserted, not assumed.
//
// Part 2 — a small fleet planned through the MarketStore three times:
// unbounded, at a 1-byte "floor probe" budget (maximal enforcement — its
// enforced peak is the store's floor: the one kept market after every
// other market is stripped and evicted), and at a real budget of
// max(peak/2, floor * 5/4). Every pass must plan to the exact same fleet
// fingerprint, the floor must sit well under the unbounded peak, and the
// real budget's *enforced* peak (the charge after each enforce_budget()
// settle) must stay at or under the budget line — streaming residency is
// a memory knob, never a results knob.
//
// Part 1 also times the coverage index both ways on that file: built from
// the (already touched) tilt-0 footprints, and bound from the file's
// stored section — a fresh open, the section's checksum and structure
// check, and the zero-copy bind — and reports the section's size and the
// file growth it costs. The bound arrays must equal the built ones.
//
// --json writes the committed BENCH_streaming.json baseline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/wave_planner.h"
#include "model/coverage_index.h"
#include "obs/profiler.h"
#include "pathloss/builder.h"
#include "pathloss/database.h"
#include "pathloss/mapped_database.h"
#include "pathloss/parallel_builder.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::size_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<std::size_t>(size) : 0;
}

/// memcmp of every (sector, tilt) dB window in `mapped` against `eager`.
[[nodiscard]] bool windows_identical(
    magus::pathloss::MappedPathLossDatabase& mapped,
    magus::pathloss::PathLossDatabase& eager,
    const std::vector<magus::net::SectorId>& sectors,
    const std::vector<magus::radio::TiltIndex>& tilts) {
  for (const magus::net::SectorId s : sectors) {
    for (const magus::radio::TiltIndex t : tilts) {
      const auto& a = mapped.footprint(s, t);
      const auto& b = eager.footprint(s, t);
      if (a.window().size() != b.window().size()) return false;
      if (std::memcmp(a.window().data(), b.window().data(),
                      a.window().size() * sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace magus;

  util::ArgParser args{
      "Cold-open streaming: eager load vs mapped open, plus a "
      "byte-budget sweep through the fleet store"};
  bench::add_scale_flags(args);
  args.add_flag("tilts", "5",
                "tilt matrix size per sector (tilts centered on 0)");
  args.add_flag("range-km", "12", "per-sector footprint range cutoff (km)");
  args.add_flag("reps", "3", "cold-open timing repetitions (mean reported)");
  args.add_flag("fleet-markets", "4", "markets in the budget-sweep fleet");
  args.add_flag("fleet-region-km", "5", "per-market region edge (km)");
  args.add_flag("fleet-study-km", "3", "per-market study area edge (km)");
  args.add_flag("db-dir", "bench_streaming_db",
                "fleet per-market database directory");
  args.add_flag("json", "", "optional JSON summary path");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  const bench::Scale scale = bench::scale_from(args);
  const obs::ObsSession obs_session{args};
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::size_t threads = util::threads_from(args);
  const int reps = std::max(1, static_cast<int>(args.get_int("reps")));

  // ---- Part 1: one market, two cold-open paths ----
  data::Experiment experiment{
      bench::market_params(data::Morphology::kSuburban, 0, scale, seed)};
  const pathloss::FootprintBuilder builder{
      &experiment.propagation(), &experiment.terrain_cache(),
      args.get_double("range-km") * 1000.0};

  std::vector<net::SectorId> sectors;
  for (const auto& sector : experiment.network().sectors()) {
    sectors.push_back(sector.id);
  }
  std::vector<radio::TiltIndex> tilts;
  const int tilt_count = std::max(1, static_cast<int>(args.get_int("tilts")));
  for (int i = 0; i < tilt_count; ++i) {
    tilts.push_back(static_cast<radio::TiltIndex>(i - tilt_count / 2));
  }
  const std::size_t matrices = sectors.size() * tilts.size();

  pathloss::ParallelFootprintBuilder parallel_builder{builder, threads};
  pathloss::PathLossDatabase db =
      parallel_builder.build_database(experiment.network(), sectors, tilts);

  const std::string v3_path = "bench_open_v3.bin";
  db.save(v3_path, threads);
  const std::size_t v3_bytes = file_size(v3_path);

  std::cout << "Cold open: " << sectors.size() << " sectors x "
            << tilts.size() << " tilts = " << matrices << " matrices, v3 "
            << v3_bytes / 1024 << " KiB, threads=" << threads
            << ", reps=" << reps << "\n\n";

  const auto mean_of = [&](auto&& body) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) body();
    return seconds_since(start) / reps;
  };
  const double wall_load = mean_of([&] {
    const pathloss::PathLossDatabase loaded =
        pathloss::PathLossDatabase::load(v3_path);
    if (loaded.entry_count() != matrices) std::abort();
  });
  const double wall_open_mapped = mean_of([&] {
    const pathloss::MappedPathLossDatabase mapped{v3_path};
    if (mapped.entry_count() != matrices) std::abort();
  });

  // First-touch cost: materialize every entry of a freshly opened mapping.
  // This is the total the lazy open defers; a fleet sweep touching one
  // tilt per sector pays ~1/tilts of it.
  pathloss::MappedPathLossDatabase mapped{v3_path};
  const auto touch_start = Clock::now();
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      (void)mapped.footprint(s, t);
    }
  }
  const double wall_first_touch = seconds_since(touch_start);
  const std::size_t heap_bytes_full = mapped.resident_bytes();
  const std::size_t mapped_bytes = mapped.mapped_bytes();

  pathloss::PathLossDatabase eager = pathloss::PathLossDatabase::load(v3_path);
  const bool mapped_equals_eager =
      windows_identical(mapped, eager, sectors, tilts);
  const std::size_t released = mapped.release_residency();
  const bool identical_after_release =
      released > 0 && mapped.resident_bytes() == 0 &&
      windows_identical(mapped, eager, sectors, tilts);

  const double speedup_cold_open = wall_load / wall_open_mapped;
  const bool cold_open_ge_5x = speedup_cold_open >= 5.0;

  // The coverage index, built (the tilt-0 footprints are touched above,
  // as a model's construction touches them) vs bound from the section.
  const pathloss::PathLossDatabase::Probe probe =
      pathloss::PathLossDatabase::probe(v3_path);
  std::size_t probed_bytes = 0;
  const std::uint64_t planes_end =
      pathloss::format::read_v3(v3_path, probed_bytes).planes_end;
  const std::size_t index_section_bytes = probe.index_section_bytes;
  const std::size_t file_growth_bytes = v3_bytes - planes_end;
  const double wall_index_build = mean_of([&] {
    const model::CoverageIndex index =
        model::CoverageIndex::build(experiment.network(), mapped);
    if (index.entry_count() == 0) std::abort();
  });
  const double wall_index_bind = mean_of([&] {
    pathloss::MappedPathLossDatabase fresh{v3_path};
    const pathloss::format::IndexSection* section = fresh.coverage_section();
    if (section == nullptr ||
        !model::CoverageIndex::binds_to(*section, experiment.network())) {
      std::abort();
    }
    const model::CoverageIndex index = model::CoverageIndex::bind(*section);
    if (index.entry_count() == 0) std::abort();
  });
  bool index_bind_identical = false;
  {
    const model::CoverageIndex built =
        model::CoverageIndex::build(experiment.network(), mapped);
    pathloss::MappedPathLossDatabase fresh{v3_path};
    const model::CoverageIndex bound =
        model::CoverageIndex::bind(*fresh.coverage_section());
    index_bind_identical =
        pathloss::format::same_arrays(built.arrays(), bound.arrays()) &&
        built.index_bytes() == bound.index_bytes();
  }

  util::TablePrinter open_table({"path", "wall (s)", "speedup vs load"});
  open_table.add_row(
      {"eager load", util::TablePrinter::num(wall_load, 5), "1.00"});
  open_table.add_row(
      {"mapped open", util::TablePrinter::num(wall_open_mapped, 6),
       util::TablePrinter::num(speedup_cold_open, 2)});
  open_table.add_row(
      {"  + touch all", util::TablePrinter::num(wall_first_touch, 5),
       util::TablePrinter::num(
           wall_load / (wall_open_mapped + wall_first_touch), 2)});
  open_table.print(std::cout);
  std::cout << "\nresidency at full touch: " << heap_bytes_full / 1024
            << " KiB heap (linear twins) + " << mapped_bytes / 1024
            << " KiB file-backed (dB planes, using_mmap="
            << (mapped.using_mmap() ? "yes" : "no") << ")\n"
            << "mapped == eager bitwise: "
            << (mapped_equals_eager ? "yes" : "NO")
            << "; after release+retouch: "
            << (identical_after_release ? "yes" : "NO") << '\n'
            << "cold-open speedup " << util::TablePrinter::num(
                   speedup_cold_open, 1)
            << "x (gate >= 5x): " << (cold_open_ge_5x ? "PASS" : "FAIL")
            << '\n'
            << "coverage index: build "
            << util::TablePrinter::num(wall_index_build * 1e3, 2)
            << " ms vs open + check + bind "
            << util::TablePrinter::num(wall_index_bind * 1e3, 2)
            << " ms; section " << index_section_bytes / 1024
            << " KiB, file growth " << file_growth_bytes / 1024
            << " KiB; bound == built: "
            << (index_bind_identical ? "yes" : "NO") << "\n\n";
  std::remove(v3_path.c_str());

  // ---- Part 2: fleet budget sweep ----
  const auto fleet_markets =
      static_cast<std::size_t>(args.get_int("fleet-markets"));
  data::FleetParams fleet_params;
  fleet_params.seed = seed;
  fleet_params.markets = fleet_markets;
  fleet_params.base.region_size_m = args.get_double("fleet-region-km") * 1000.0;
  fleet_params.base.study_size_m = args.get_double("fleet-study-km") * 1000.0;
  const std::vector<fleet::MarketSpec> specs =
      fleet::specs_from_fleet(fleet_params);

  fleet::StoreOptions store_options;
  store_options.db_dir = args.get_string("db-dir");
  store_options.threads = threads;

  fleet::WavePlannerOptions planner_options;
  planner_options.planner.mode = core::TuningMode::kPower;
  planner_options.threads = threads;

  std::vector<fleet::MarketUpgradeRequest> requests;
  requests.reserve(specs.size());
  for (const fleet::MarketSpec& spec : specs) requests.push_back({spec.id, 1});

  struct SweepRow {
    std::string label;
    std::size_t budget = 0;  ///< 0 = unbounded
    double seconds = 0.0;
    std::uint64_t fingerprint = 0;
    std::size_t peak = 0;           ///< pre-enforcement peak charge
    std::size_t enforced_peak = 0;  ///< peak charge after each settle
    std::size_t releases = 0;
    std::size_t evictions = 0;
  };
  std::vector<SweepRow> sweep;
  const auto run_sweep = [&](const std::string& label, std::size_t budget) {
    fleet::StoreOptions options = store_options;
    options.byte_budget = budget;
    fleet::MarketStore store{specs, options};
    fleet::WavePlanner planner{&store, planner_options};
    const auto start = Clock::now();
    const fleet::FleetWavePlan plan = planner.plan(requests);
    SweepRow row;
    row.label = label;
    row.budget = budget;
    row.seconds = seconds_since(start);
    row.fingerprint = plan.fleet_fingerprint();
    row.peak = store.peak_resident_bytes();
    row.enforced_peak = store.enforced_peak_bytes();
    row.releases = store.releases();
    row.evictions = store.evictions();
    sweep.push_back(row);
  };
  // The unbounded pass also builds + v3-saves every market database on
  // disk; the budgeted passes then stream from those files. The 1-byte
  // floor probe measures the smallest charge enforcement can reach (the
  // one kept market, everything else stripped and evicted); the real
  // budget then sits at half the unbounded peak, floored just above the
  // probe so the under-budget gate is about enforcement, not geometry.
  run_sweep("unbounded", 0);
  const std::size_t peak = sweep[0].peak;
  run_sweep("floor probe", 1);
  const std::size_t floor_bytes = sweep[1].enforced_peak;
  const std::size_t budget_bytes =
      std::max(peak / 2, floor_bytes + floor_bytes / 4);
  run_sweep("1/2 peak", budget_bytes);

  bool plans_identical = true;
  std::size_t releases_total = 0;
  for (const SweepRow& row : sweep) {
    plans_identical =
        plans_identical && row.fingerprint == sweep.front().fingerprint;
    releases_total += row.releases;
  }
  const bool under_budget = sweep[2].enforced_peak <= budget_bytes;
  const bool floor_below_peak = floor_bytes < peak;

  util::TablePrinter sweep_table({"pass", "budget MiB", "seconds", "peak MiB",
                                  "enforced MiB", "releases", "evictions",
                                  "identical"});
  const auto mib = [](std::size_t bytes) {
    return util::TablePrinter::num(static_cast<double>(bytes) / (1 << 20), 1);
  };
  for (const SweepRow& row : sweep) {
    sweep_table.add_row(
        {row.label, row.budget == 0 ? "-" : mib(row.budget),
         util::TablePrinter::num(row.seconds, 2), mib(row.peak),
         mib(row.enforced_peak), std::to_string(row.releases),
         std::to_string(row.evictions),
         row.fingerprint == sweep.front().fingerprint ? "yes" : "NO"});
  }
  sweep_table.print(std::cout);
  std::cout << "\nfleet: " << fleet_markets << " markets; plans identical "
            << "across budgets: " << (plans_identical ? "yes" : "NO")
            << "; enforcement floor " << mib(floor_bytes) << " MiB vs peak "
            << mib(peak) << " MiB; enforced peak <= budget: "
            << (under_budget ? "yes" : "NO") << "; footprint releases: "
            << releases_total << '\n';

  if (const std::string json_path = args.get_string("json");
      !json_path.empty()) {
    util::JsonObject summary;
    summary.set("meta", obs::run_metadata_json());
    summary.set("bench", "pathloss_open");
    summary.set("threads", static_cast<std::int64_t>(threads));
    summary.set("sectors", static_cast<std::int64_t>(sectors.size()));
    summary.set("tilts", static_cast<std::int64_t>(tilts.size()));
    summary.set("matrices", static_cast<std::int64_t>(matrices));
    summary.set("file_bytes_v3", static_cast<std::int64_t>(v3_bytes));
    summary.set("index_section_bytes",
                static_cast<std::int64_t>(index_section_bytes));
    summary.set("file_growth_bytes",
                static_cast<std::int64_t>(file_growth_bytes));
    summary.set("wall_s_index_build", wall_index_build);
    summary.set("wall_s_index_bind", wall_index_bind);
    summary.set("index_bind_identical", index_bind_identical);
    summary.set("wall_s_load", wall_load);
    summary.set("wall_s_open_mapped", wall_open_mapped);
    summary.set("wall_s_first_touch_all", wall_first_touch);
    summary.set("speedup_cold_open", speedup_cold_open);
    summary.set("cold_open_speedup_ge_5x", cold_open_ge_5x);
    summary.set("using_mmap", mapped.using_mmap());
    summary.set("heap_bytes_full", static_cast<std::int64_t>(heap_bytes_full));
    summary.set("mapped_bytes", static_cast<std::int64_t>(mapped_bytes));
    summary.set("mapped_equals_eager", mapped_equals_eager);
    summary.set("identical_after_release", identical_after_release);
    summary.set("fleet_markets", static_cast<std::int64_t>(fleet_markets));
    summary.set("fleet_fingerprint",
                static_cast<std::int64_t>(sweep.front().fingerprint));
    summary.set("fleet_peak_bytes", static_cast<std::int64_t>(peak));
    summary.set("enforcement_floor_bytes",
                static_cast<std::int64_t>(floor_bytes));
    summary.set("budget_bytes", static_cast<std::int64_t>(budget_bytes));
    summary.set("plan_seconds_unbounded", sweep[0].seconds);
    summary.set("plan_seconds_floor", sweep[1].seconds);
    summary.set("plan_seconds_budgeted", sweep[2].seconds);
    summary.set("enforced_peak_budgeted",
                static_cast<std::int64_t>(sweep[2].enforced_peak));
    summary.set("releases_total", static_cast<std::int64_t>(releases_total));
    summary.set("evictions_floor",
                static_cast<std::int64_t>(sweep[1].evictions));
    summary.set("plans_identical_across_budgets", plans_identical);
    summary.set("under_budget", under_budget);
    summary.set("floor_below_peak", floor_below_peak);
    summary.write_file(json_path);
    std::cout << "JSON summary written to " << json_path << '\n';
  }

  return (cold_open_ge_5x && mapped_equals_eager && identical_after_release &&
          index_bind_identical && plans_identical && under_budget &&
          floor_below_peak)
             ? 0
             : 1;
}
