// Google-benchmark micro benchmarks of the hot paths: footprint
// construction, full model rebuild, incremental power/tilt updates,
// snapshot/restore, utility evaluation with a cold CQI memo (and its CQI
// pass alone), restore/set_power/evaluate and restore/set_tilt/evaluate
// probe cycles on a warm memo, one footprint's dB -> linear twin pass,
// batch candidate scoring, and one Algorithm-1 rate probe.
//
// Beyond the google-benchmark flags, the binary accepts:
//   --threads N   worker threads for the parallel-scoring benchmarks
//                 (0 = hardware concurrency; peeled before benchmark init)
//   --json PATH   write a machine-readable summary of the batch-scoring
//                 throughput (evaluations/sec, wall time, speedup vs 1
//                 thread), the full-rebuild time, and the index-vs-legacy
//                 speedup on the demotion workload to PATH
//   --scaling     add a thread-scaling sweep to the --json artifact: the
//                 batch-scoring pass at 1/2/4/8 workers, one keyed row
//                 each under "scaling" (t1/t2/t4/t8)
//   --metrics PATH  write the metrics-registry snapshot (JSON) to PATH
//   --trace PATH    record spans and write a Chrome trace-event file
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parallel_evaluator.h"
#include "core/power_search.h"
#include "data/experiment.h"
#include "data/upgrade_scenarios.h"
#include "model/kernels.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace magus;

std::size_t g_threads = 1;  ///< --threads (resolved)
bool g_scaling = false;     ///< --scaling adds the thread sweep to --json

[[nodiscard]] std::size_t micro_threads() { return g_threads; }

[[nodiscard]] data::MarketParams bench_params(std::uint64_t seed = 3) {
  data::MarketParams params;
  params.morphology = data::Morphology::kSuburban;
  params.seed = seed;
  params.region_size_m = 10'000.0;
  params.study_size_m = 4'000.0;
  return params;
}

/// Shared experiment so construction cost is paid once per binary run.
data::Experiment& shared_experiment() {
  static data::Experiment experiment{bench_params()};
  return experiment;
}

/// The shared model, bound to the coverage index.
model::AnalysisModel& shared_model() {
  model::AnalysisModel& model = shared_experiment().model();
  model.market_context().ensure_coverage_index();
  model.bind_coverage_index();
  return model;
}

void BM_FootprintBuild(benchmark::State& state) {
  data::Experiment& experiment = shared_experiment();
  const terrain::TerrainGridCache cache{experiment.terrain(),
                                        experiment.grid()};
  const radio::PropagationModel propagation{&experiment.terrain(),
                                            radio::SpmParams{}};
  const pathloss::FootprintBuilder builder{&propagation, &cache, 12'000.0};
  const net::Sector& sector = experiment.network().sector(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(sector, 0));
  }
}
BENCHMARK(BM_FootprintBuild)->Unit(benchmark::kMillisecond);

void BM_FullRebuild(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  const net::Configuration config = model.network().default_configuration();
  for (auto _ : state) {
    model.set_configuration(config);
  }
}
BENCHMARK(BM_FullRebuild)->Unit(benchmark::kMillisecond);

void BM_IncrementalPowerUp(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  double power = 46.0;
  for (auto _ : state) {
    power = power >= 48.0 ? 40.0 : power + 1.0;
    model.set_power(0, power);
  }
}
BENCHMARK(BM_IncrementalPowerUp)->Unit(benchmark::kMillisecond);

void BM_TiltSwap(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  int tilt = 0;
  for (auto _ : state) {
    tilt = tilt == 0 ? -1 : 0;
    model.set_tilt(0, tilt);
  }
}
BENCHMARK(BM_TiltSwap)->Unit(benchmark::kMillisecond);

void BM_SnapshotRestore(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  const auto snapshot = model.snapshot();
  for (auto _ : state) {
    model.restore(snapshot);
  }
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

// One evaluation with a cold CQI memo: every cell is classified, as on a
// scratch's first evaluation. (On an unchanged state a warm memo would
// keep every cell; BM_ProbeCycle measures the warm case.)
void BM_UtilityEvaluation(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  model.freeze_uniform_ue_density();
  const core::Utility utility = core::Utility::performance();
  core::EvalScratch scratch;
  for (auto _ : state) {
    scratch.cqi_memo.clear();
    benchmark::DoNotOptimize(core::evaluate_utility(model, utility, scratch));
  }
}
BENCHMARK(BM_UtilityEvaluation)->Unit(benchmark::kMillisecond);

// Pass 1 of BM_UtilityEvaluation alone (per-cell CQI + sector loads, cold
// memo), so the pass-1 / pass-2 split of one evaluation is visible.
void BM_CqiLoadsKernel(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  model.freeze_uniform_ue_density();
  model::CqiMemo memo;
  std::vector<double> loads(model.network().sector_count());
  for (auto _ : state) {
    memo.clear();
    model::cqi_and_loads_kernel(model.state(), model.ue_density(),
                                model.noise_mw(),
                                model.options().min_service_sinr_db, memo,
                                loads);
    benchmark::DoNotOptimize(loads.data());
  }
}
BENCHMARK(BM_CqiLoadsKernel)->Unit(benchmark::kMillisecond);

void BM_ImprovesRateProbe(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  geo::GridIndex g = 0;
  for (auto _ : state) {
    g = (g + 17) % model.cell_count();
    benchmark::DoNotOptimize(model.power_delta_improves_rate(0, 2.0, g));
  }
}
BENCHMARK(BM_ImprovesRateProbe);

void BM_PowerSearchFull(benchmark::State& state) {
  data::Experiment& experiment = shared_experiment();
  model::AnalysisModel& model = shared_model();
  core::ParallelEvaluator evaluator{&model, core::Utility::performance(),
                                    micro_threads()};
  const auto targets = data::upgrade_targets(
      experiment.market(), data::UpgradeScenario::kSingleSector);
  for (auto _ : state) {
    state.PauseTiming();
    model.set_configuration(model.network().default_configuration());
    model.freeze_uniform_ue_density();
    const auto baseline = core::capture_rates(model);
    for (const net::SectorId t : targets) model.set_active(t, false);
    const auto involved =
        experiment.network().neighbors_of(targets, 5'000.0);
    state.ResumeTiming();
    const core::PowerSearch search{};
    benchmark::DoNotOptimize(search.run(evaluator, involved, baseline));
  }
}
BENCHMARK(BM_PowerSearchFull)->Unit(benchmark::kMillisecond);

void BM_BatchScore(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  model.freeze_uniform_ue_density();
  core::ParallelEvaluator evaluator{
      &model, core::Utility::performance(),
      static_cast<std::size_t>(state.range(0))};
  core::CandidateBatch batch;
  for (std::size_t s = 0; s < model.network().sector_count(); ++s) {
    batch.push_back(core::Candidate::single(core::Mutation::power(
        static_cast<net::SectorId>(s),
        model.configuration()[static_cast<net::SectorId>(s)].power_dbm +
            2.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.score(batch));
  }
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(evaluator.evaluation_count()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchScore)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// The sector whose outage demotes the most cells: the market's busiest
/// server. Upgrades target loaded sectors, and demoting one forces a
/// top-2 recompute in every cell it served or backed up — the
/// recompute_top2-dominated workload the coverage index exists for
/// (an edge sector that serves almost nothing would measure only the
/// unavoidable mW sweep, which the index shares with the legacy path).
net::SectorId busiest_sector(const model::AnalysisModel& model) {
  std::vector<int> served(
      static_cast<std::size_t>(model.network().sector_count()), 0);
  for (geo::GridIndex g = 0; g < model.cell_count(); ++g) {
    const net::SectorId s = model.serving_sector(g);
    if (s != net::kInvalidSector) ++served[static_cast<std::size_t>(s)];
  }
  net::SectorId best = 0;
  for (std::size_t s = 1; s < served.size(); ++s) {
    if (served[s] > served[static_cast<std::size_t>(best)]) {
      best = static_cast<net::SectorId>(s);
    }
  }
  return best;
}

/// The recompute_top2-dominated workload: taking the busiest sector
/// off-air demotes every cell it served (or backed up), forcing a top-2
/// recompute per affected cell; the reactivation restores the base state.
void BM_DemotionRebuild(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  const net::SectorId target = busiest_sector(model);
  for (auto _ : state) {
    model.set_active(target, false);
    model.set_active(target, true);
  }
}
BENCHMARK(BM_DemotionRebuild)->Unit(benchmark::kMillisecond);

/// The production probe shape: restore the base state, move the busiest
/// sector's power by +1 or -1 dB, and evaluate on a warm scratch, whose
/// CQI memo keeps every cell the move provably did not re-classify.
void BM_ProbeCycle(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  model.freeze_uniform_ue_density();
  const net::SectorId sector = busiest_sector(model);
  const double power = model.configuration()[sector].power_dbm;
  const auto base = model.snapshot();
  const core::Utility utility = core::Utility::performance();
  core::EvalScratch scratch;
  benchmark::DoNotOptimize(core::evaluate_utility(model, utility, scratch));
  double delta = 1.0;
  for (auto _ : state) {
    model.restore(base);
    model.set_power(sector, power + delta);
    delta = -delta;
    benchmark::DoNotOptimize(core::evaluate_utility(model, utility, scratch));
  }
}
BENCHMARK(BM_ProbeCycle)->Unit(benchmark::kMillisecond);

/// The tilt probe shape: restore the base state, tilt the busiest sector
/// by +1 or -1 step (both off the indexed plane), and evaluate on a warm
/// scratch.
void BM_TiltProbeCycle(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  model.freeze_uniform_ue_density();
  const net::SectorId sector = busiest_sector(model);
  const int tilt = model.configuration()[sector].tilt;
  const auto base = model.snapshot();
  const core::Utility utility = core::Utility::performance();
  core::EvalScratch scratch;
  benchmark::DoNotOptimize(core::evaluate_utility(model, utility, scratch));
  int delta = 1;
  for (auto _ : state) {
    model.restore(base);
    model.set_tilt(sector, tilt + delta);
    delta = -delta;
    benchmark::DoNotOptimize(core::evaluate_utility(model, utility, scratch));
  }
}
BENCHMARK(BM_TiltProbeCycle)->Unit(benchmark::kMillisecond);

/// One footprint's dB -> linear twin pass (the busiest sector at its
/// default tilt), as a first touch of its matrix runs it.
void BM_LinearTwin(benchmark::State& state) {
  model::AnalysisModel& model = shared_model();
  model.set_configuration(model.network().default_configuration());
  const net::SectorId sector = busiest_sector(model);
  const std::span<const float> gains =
      shared_experiment()
          .provider()
          .footprint(sector, model.configuration()[sector].tilt)
          .window();
  std::vector<float> linear(gains.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pathloss::linear_twin(gains.data(), linear.data(), gains.size()));
    benchmark::DoNotOptimize(linear.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gains.size()));
}
BENCHMARK(BM_LinearTwin)->Unit(benchmark::kMicrosecond);

/// Timed batch-scoring sweep for the --json artifact: same work at 1 thread
/// and at --threads, reporting throughput and the measured speedup, plus
/// the full-rebuild time and the index-vs-legacy comparison on the
/// demotion workload.
void write_json_summary(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  data::Experiment& experiment = shared_experiment();
  model::AnalysisModel& model = shared_model();
  const net::Configuration defaults = model.network().default_configuration();
  // A model stays unbound until its first search binds it, so the
  // all-sectors scan is still a production state: a fresh model over the
  // same market measures it.
  model::AnalysisModel unbound{&experiment.network(), &experiment.provider(),
                               model.options()};

  // Bound vs unbound on the demotion workload (set_active off/on of the
  // busiest sector). Identical mutation sequences; only the top-2 scan
  // differs.
  constexpr int kModelRounds = 40;
  model.set_configuration(defaults);
  const net::SectorId demotion_target = busiest_sector(model);
  const auto timed_demotion = [&](model::AnalysisModel& m) {
    m.set_configuration(defaults);
    m.set_active(demotion_target, false);  // warm up
    m.set_active(demotion_target, true);
    const auto start = Clock::now();
    for (int round = 0; round < kModelRounds; ++round) {
      m.set_active(demotion_target, false);
      m.set_active(demotion_target, true);
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double demotion_legacy_s = timed_demotion(unbound);
  const double demotion_index_s = timed_demotion(model);

  model.set_configuration(defaults);  // warm up
  const auto rebuild_start = Clock::now();
  for (int round = 0; round < kModelRounds; ++round) {
    model.set_configuration(defaults);
  }
  const double rebuild_s =
      std::chrono::duration<double>(Clock::now() - rebuild_start).count();

  model.set_configuration(defaults);
  model.freeze_uniform_ue_density();

  core::CandidateBatch batch;
  for (std::size_t s = 0; s < model.network().sector_count(); ++s) {
    batch.push_back(core::Candidate::single(core::Mutation::power(
        static_cast<net::SectorId>(s),
        model.configuration()[static_cast<net::SectorId>(s)].power_dbm +
            2.0)));
  }
  constexpr int kRounds = 20;
  // Report the worker count each pass *actually* ran with (the evaluator's
  // pool size), not the requested flag value — they differ when --threads
  // is 0 (hardware concurrency) or absent.
  std::size_t serial_workers = 0;
  std::size_t parallel_workers = 0;
  const auto timed_run = [&](std::size_t threads, std::size_t& workers) {
    core::ParallelEvaluator evaluator{&model, core::Utility::performance(),
                                      threads};
    workers = evaluator.thread_count();
    (void)evaluator.score(batch);  // warm up worker clones
    const auto start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      benchmark::DoNotOptimize(evaluator.score(batch));
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const double serial_s = timed_run(1, serial_workers);
  const double parallel_s = timed_run(g_threads, parallel_workers);
  const auto evals = static_cast<double>(batch.size()) * kRounds;

  util::JsonObject summary;
  summary.set("meta", obs::run_metadata_json())
      .set("simd", util::simd::kBackendName)
      .set("bench", "bench_micro_model")
      .set("batch_size", static_cast<std::int64_t>(batch.size()))
      .set("rounds", static_cast<std::int64_t>(kRounds))
      .set("threads", static_cast<std::int64_t>(parallel_workers))
      .set("threads_serial_pass", static_cast<std::int64_t>(serial_workers))
      .set("wall_s_1_thread", serial_s)
      .set("wall_s", parallel_s)
      .set("evals_per_sec_1_thread", evals / serial_s)
      .set("evals_per_sec", evals / parallel_s)
      .set("speedup_vs_1_thread", serial_s / parallel_s)
      .set("index_bytes",
           static_cast<std::int64_t>(model.market_context().index_bytes()))
      .set("demotion_ms_legacy", 1e3 * demotion_legacy_s / kModelRounds)
      .set("demotion_ms_index", 1e3 * demotion_index_s / kModelRounds)
      .set("demotion_speedup", demotion_legacy_s / demotion_index_s)
      .set("rebuild_ms", 1e3 * rebuild_s / kModelRounds);

  if (g_scaling) {
    // Thread-scaling sweep: the same batch-scoring pass at 1/2/4/8
    // requested workers, keyed "t<requested>" (the regression gate
    // addresses nested keys by path, so rows are an object, not an
    // array). Each row reports the worker count the evaluator actually
    // resolved — on small machines t8 may run with fewer.
    util::JsonObject scaling;
    double base_s = 0.0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      std::size_t workers = 0;
      const double wall = timed_run(threads, workers);
      if (threads == 1) base_s = wall;
      util::JsonObject row;
      row.set("threads", static_cast<std::int64_t>(workers))
          .set("wall_s", wall)
          .set("evals_per_sec", evals / wall)
          .set("speedup_vs_1_thread", base_s / wall);
      scaling.set("t" + std::to_string(threads), std::move(row));
    }
    summary.set("scaling", std::move(scaling));
  }

  summary.write_file(path);
  std::cout << "wrote " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // Peel our flags; everything else goes to google-benchmark.
  std::string json_path;
  std::string metrics_path;
  std::string trace_path;
  std::string profile_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const auto take_value = [&](const char* flag) -> const char* {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) != 0) return nullptr;
      if (argv[i][len] == '=') return argv[i] + len + 1;
      if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (std::strcmp(argv[i], "--scaling") == 0) {
      g_scaling = true;
    } else if (const char* v = take_value("--threads")) {
      g_threads = util::resolve_thread_count(
          static_cast<std::size_t>(std::max(0L, std::strtol(v, nullptr, 10))));
    } else if (const char* v = take_value("--json")) {
      json_path = v;
    } else if (const char* v = take_value("--metrics")) {
      metrics_path = v;
    } else if (const char* v = take_value("--trace")) {
      trace_path = v;
    } else if (const char* v = take_value("--profile")) {
      profile_path = v;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  obs::ObsSession obs_session{metrics_path, trace_path, profile_path};
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_json_summary(json_path);
  return 0;
}
