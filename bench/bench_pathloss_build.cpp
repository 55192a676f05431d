// Path-loss generation pipeline bench: times a full-market path-loss
// database build three ways —
//   legacy:   the pre-batching per-cell kernel (FootprintBuilder::
//             build_reference), one sector x tilt matrix at a time,
//   serial:   the batched row pipeline on one thread
//             (ParallelFootprintBuilder{builder, 1}),
//   parallel: the batched pipeline fanned across --threads workers —
// then verifies the serial and parallel databases are bitwise identical
// (entry-for-entry and as saved bytes), times the serial and parallel
// saves and one load of the saved file, and reports batched-vs-legacy
// fidelity stats.
// --json emits the committed BENCH_pathloss.json baseline.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pathloss/builder.h"
#include "pathloss/database.h"
#include "pathloss/parallel_builder.h"
#include "obs/profiler.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace magus;

  util::ArgParser args{
      "Path-loss build pipeline: legacy kernel vs batched serial vs "
      "batched parallel, with bitwise-identity checks"};
  bench::add_scale_flags(args);
  args.add_flag("tilts", "5",
                "tilt matrix size per sector (tilts centered on 0)");
  args.add_flag("range-km", "12", "per-sector footprint range cutoff (km)");
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

  // One suburban market; the builder is wired straight to the experiment's
  // terrain cache + propagation model so all three paths share the exact
  // same inputs.
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
  std::cout << "Path-loss build: " << sectors.size() << " sectors x "
            << tilts.size() << " tilts = " << matrices << " matrices, "
            << experiment.grid().cell_count() << " grid cells, threads="
            << threads << "\n\n";

  // Legacy serial baseline: the pre-batching per-cell kernel.
  const auto legacy_start = Clock::now();
  pathloss::PathLossDatabase legacy_db{experiment.grid()};
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      legacy_db.insert(s, t,
                       builder.build_reference(experiment.network().sector(s),
                                               t));
    }
  }
  const double wall_legacy = seconds_since(legacy_start);

  // Batched pipeline, serial then parallel.
  pathloss::ParallelFootprintBuilder serial_builder{builder, 1};
  const auto serial_start = Clock::now();
  pathloss::PathLossDatabase serial_db =
      serial_builder.build_database(experiment.network(), sectors, tilts);
  const double wall_serial = seconds_since(serial_start);

  pathloss::ParallelFootprintBuilder parallel_builder{builder, threads};
  const auto parallel_start = Clock::now();
  pathloss::PathLossDatabase parallel_db =
      parallel_builder.build_database(experiment.network(), sectors, tilts);
  const double wall_parallel = seconds_since(parallel_start);

  // Bitwise identity: every serial entry must equal its parallel twin.
  bool entries_identical = serial_db.entry_count() == parallel_db.entry_count();
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      const pathloss::SectorFootprint& a = serial_db.footprint(s, t);
      const pathloss::SectorFootprint& b = parallel_db.footprint(s, t);
      entries_identical =
          entries_identical && a.window().size() == b.window().size() &&
          std::memcmp(a.window().data(), b.window().data(),
                      a.window().size() * sizeof(float)) == 0;
    }
  }

  // Serialization: serial and parallel saves of the same database must be
  // byte-identical; the load must round-trip bit-identically.
  const std::string serial_path = "bench_pathloss_serial.bin";
  const std::string parallel_path = "bench_pathloss_parallel.bin";
  const auto save1_start = Clock::now();
  serial_db.save(serial_path, 1);
  const double wall_save_serial = seconds_since(save1_start);
  const auto saven_start = Clock::now();
  parallel_db.save(parallel_path, threads);
  const double wall_save_parallel = seconds_since(saven_start);
  const bool files_identical = read_all(serial_path) == read_all(parallel_path);

  const auto load_start = Clock::now();
  pathloss::PathLossDatabase loaded =
      pathloss::PathLossDatabase::load(parallel_path);
  const double wall_load = seconds_since(load_start);
  bool load_identical = loaded.entry_count() == matrices;
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      const pathloss::SectorFootprint& a = parallel_db.footprint(s, t);
      const pathloss::SectorFootprint& b = loaded.footprint(s, t);
      load_identical = load_identical &&
                       a.window().size() == b.window().size() &&
                       std::memcmp(a.window().data(), b.window().data(),
                                   a.window().size() * sizeof(float)) == 0;
    }
  }
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());

  // Fidelity of the batched kernel against the legacy reference: the
  // batched path trades exact per-cell profile resampling for ray-quantized
  // radial profiles, so values differ by design — report by how much.
  const std::int32_t cells = experiment.grid().cell_count();
  std::size_t both = 0, disagree = 0;
  double abs_sum = 0.0, abs_max = 0.0;
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      const pathloss::SectorFootprint& ref = legacy_db.footprint(s, t);
      const pathloss::SectorFootprint& got = serial_db.footprint(s, t);
      for (std::int32_t g = 0; g < cells; ++g) {
        const bool a = ref.covers(g);
        const bool b = got.covers(g);
        if (a != b) {
          ++disagree;
        } else if (a) {
          ++both;
          const double delta = std::abs(static_cast<double>(ref.gain_db(g)) -
                                        static_cast<double>(got.gain_db(g)));
          abs_sum += delta;
          abs_max = std::max(abs_max, delta);
        }
      }
    }
  }
  const double mean_abs = both != 0 ? abs_sum / static_cast<double>(both) : 0.0;
  const double coverage_disagree_frac =
      disagree / static_cast<double>(static_cast<std::size_t>(cells) *
                                     matrices);

  util::TablePrinter table({"path", "wall (s)", "matrices/s", "speedup"});
  const auto rate = [&](double wall) {
    return util::TablePrinter::num(static_cast<double>(matrices) / wall, 1);
  };
  table.add_row({"legacy per-cell kernel", util::TablePrinter::num(wall_legacy, 3),
                 rate(wall_legacy), "1.00"});
  table.add_row({"batched, 1 thread", util::TablePrinter::num(wall_serial, 3),
                 rate(wall_serial),
                 util::TablePrinter::num(wall_legacy / wall_serial, 2)});
  table.add_row({"batched, " + std::to_string(threads) + " threads",
                 util::TablePrinter::num(wall_parallel, 3), rate(wall_parallel),
                 util::TablePrinter::num(wall_legacy / wall_parallel, 2)});
  table.print(std::cout);

  std::cout << "\nidentity: serial-vs-parallel entries "
            << (entries_identical ? "bitwise identical" : "DIFFER")
            << ", saved files "
            << (files_identical ? "byte identical" : "DIFFER") << '\n'
            << "save: " << wall_save_serial << " s serial, "
            << wall_save_parallel << " s parallel; load: " << wall_load
            << " s\n"
            << "fidelity vs legacy kernel: mean |d| " << mean_abs
            << " dB, max |d| " << abs_max << " dB, coverage disagreement "
            << coverage_disagree_frac * 100.0 << "%\n";

  if (const std::string json_path = args.get_string("json");
      !json_path.empty()) {
    util::JsonObject summary;
    summary.set("meta", obs::run_metadata_json());
    summary.set("bench", "pathloss_build");
    summary.set("threads", static_cast<std::int64_t>(threads));
    summary.set("sectors", static_cast<std::int64_t>(sectors.size()));
    summary.set("tilts", static_cast<std::int64_t>(tilts.size()));
    summary.set("matrices", static_cast<std::int64_t>(matrices));
    summary.set("grid_cells", static_cast<std::int64_t>(cells));
    summary.set("wall_s_legacy", wall_legacy);
    summary.set("wall_s_serial", wall_serial);
    summary.set("wall_s_parallel", wall_parallel);
    summary.set("matrices_per_sec_parallel",
                static_cast<double>(matrices) / wall_parallel);
    summary.set("speedup_serial_vs_legacy", wall_legacy / wall_serial);
    summary.set("speedup_parallel_vs_legacy", wall_legacy / wall_parallel);
    summary.set("speedup_parallel_vs_serial", wall_serial / wall_parallel);
    summary.set("wall_s_save_serial", wall_save_serial);
    summary.set("wall_s_save_parallel", wall_save_parallel);
    summary.set("wall_s_load", wall_load);
    summary.set("entries_identical", entries_identical);
    summary.set("files_identical", files_identical);
    summary.set("load_round_trip_ok", load_identical);
    summary.set("fidelity_mean_abs_db", mean_abs);
    summary.set("fidelity_max_abs_db", abs_max);
    summary.set("coverage_disagree_frac", coverage_disagree_frac);
    summary.write_file(json_path);
    std::cout << "JSON summary written to " << json_path << '\n';
  }

  return entries_identical && files_identical && load_identical ? 0 : 1;
}
