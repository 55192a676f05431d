// perfbench_e2e: the end-to-end upgrade benchmark's binary.
//
// Drives the real upgrade path through each module's public API, from a v3
// path-loss file on disk to a simulated or journaled migration:
//
//   pathloss -> model -> core -> sim / traffic -> exec -> fleet
//
// Three workloads (see perfbench/README.md for why each exists):
//
//   market_joint     one suburban market, joint power+tilt tuning; one op =
//                    open the v3 file mapped, bind the model, build the
//                    coverage index, plan the full-site upgrade at the
//                    study-area centre, simulate the gradual migration.
//   fleet_wave       an 8-market fleet under a store budget of 1/4 of the
//                    unbounded peak; one op = WavePlanner::plan, ::execute
//                    with per-market journals, then a crash at the wave
//                    midpoint and a resumed execute.
//   campaign_resume  a smaller suburban market under power tuning; one op =
//                    plan every study-area site, schedule the campaign, run
//                    it journaled with seeded faults, crash the same
//                    campaign at its journal midpoint, then replay the
//                    crashed journal and resume.
//
// Two phases, each its own process so a phase's peak RSS is its own:
//
//   --phase setup  writes the inputs into a fresh --dir (path-loss
//                  databases; for fleet_wave also the unbounded reference
//                  pass) and writes its wall time to --out.
//   --phase run    measures ops for --seconds and writes every metric to
//                  --out. --trace 0 times untraced ops (the end-to-end
//                  metrics). --trace 1 first times untraced ops for half
//                  the budget, then replays the same ops traced: spans
//                  recorded here, around the calls into each layer, give
//                  per-layer self time, and the wall difference between
//                  the two halves is the tracing overhead.
//
// Where a layer boundary is crossed inside another public call (acquire
// inside WavePlanner::plan, plan_upgrade inside CampaignRunner::run, batch
// scoring inside plan_upgrade) the traced run diffs the library's own
// registry histograms and counters around the outer call instead of adding
// spans inside the library.
//
// perfbench/run.py builds this binary and runs both phases.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "data/experiment.h"
#include "data/upgrade_scenarios.h"
#include "exec/campaign_runner.h"
#include "exec/fault_injector.h"
#include "exec/journal.h"
#include "fleet/wave_planner.h"
#include "model/analysis_model.h"
#include "obs/metrics.h"
#include "pathloss/database.h"
#include "pathloss/mapped_database.h"
#include "sim/migration_sim.h"
#include "traffic/campaign.h"
#include "util/args.h"
#include "util/checksum.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace magus;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics.
[[nodiscard]] double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

[[nodiscard]] double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ---- Layers and spans -----------------------------------------------------

enum class Layer { kPathloss, kModel, kCore, kSim, kTraffic, kExec, kFleet };
constexpr std::size_t kLayerCount = 7;
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "pathloss", "model", "core", "sim", "traffic", "exec", "fleet"};

[[nodiscard]] const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

/// Span recorder for the main thread. A span is opened around a call
/// into one layer; a "derived" span is a duration-only child whose length
/// comes from a registry histogram diff or from the main thread's
/// footprint touches. Self time = span duration minus its children's, so
/// the layers' self times add up to the wall time the root spans cover;
/// what no root span covers is the untraced residual. Disabled tracers
/// record nothing and read no clock.
class Tracer {
 public:
  static constexpr int kNone = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(Layer layer, std::string name) {
    if (!enabled_) return kNone;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({layer, std::move(name), now(), 0.0,
                      stack_.empty() ? kNone : stack_.back(), 0.0, false});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id == kNone) return;
    // Footprint touches made by the main thread inside this span (and not
    // inside a child) become its pathloss child.
    const double touch = spans_[static_cast<std::size_t>(id)].touch_s;
    spans_[static_cast<std::size_t>(id)].dur_s =
        now() - spans_[static_cast<std::size_t>(id)].start_s;
    stack_.pop_back();
    if (touch > 0.0) derive(id, Layer::kPathloss, "footprint_touch", touch);
  }

  /// Adds a completed duration-only child of `parent`; returns its id so
  /// derived spans can nest.
  int derive(int parent, Layer layer, std::string name, double seconds) {
    if (!enabled_ || parent == kNone || seconds <= 0.0) return kNone;
    const int id = static_cast<int>(spans_.size());
    const double start = spans_[static_cast<std::size_t>(parent)].start_s;
    spans_.push_back(
        {layer, std::move(name), start, seconds, parent, 0.0, true});
    return id;
  }

  /// Charges a main-thread footprint touch to the innermost open span.
  void charge_touch(double seconds) {
    if (!enabled_ || stack_.empty()) return;
    spans_[static_cast<std::size_t>(stack_.back())].touch_s += seconds;
  }

  /// Self seconds per layer over every recorded span.
  [[nodiscard]] std::array<double, kLayerCount> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent != kNone) {
        child[static_cast<std::size_t>(span.parent)] += span.dur_s;
      }
    }
    std::array<double, kLayerCount> self{};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[static_cast<std::size_t>(spans_[i].layer)] +=
          std::max(0.0, spans_[i].dur_s - child[i]);
    }
    return self;
  }

  /// Chrome trace-event JSON of every span (derived spans on tid 2, placed
  /// at their parent's start).
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out{path};
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << layer_name(s.layer)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << (s.derived ? 2 : 1) << ", \"ts\": " << s.start_s * 1e6
          << ", \"dur\": " << s.dur_s * 1e6 << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    Layer layer;
    std::string name;
    double start_s;
    double dur_s;
    int parent;
    double touch_s;
    bool derived;
  };

  [[nodiscard]] double now() const { return seconds_since(epoch_); }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opened on construction, closed on scope exit (exceptions too).
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::string name)
      : tracer_(tracer), id_(tracer.open(layer, std::move(name))) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Registry snapshot diffs: what the library recorded between two points.
class RegistryDiff {
 public:
  explicit RegistryDiff(bool enabled) : enabled_(enabled) {
    if (enabled_) before_ = obs::MetricsRegistry::global().snapshot();
  }

  /// Re-snapshots "after"; call once the wrapped call returned.
  void finish() {
    if (enabled_) after_ = obs::MetricsRegistry::global().snapshot();
  }

  [[nodiscard]] double counter(const std::string& name) const {
    if (!enabled_) return 0.0;
    return static_cast<double>(after_.counter_value(name) -
                               before_.counter_value(name));
  }
  /// Sum of a histogram's observations between the snapshots.
  [[nodiscard]] double hist_sum(const std::string& name) const {
    return find(after_, name).sum - find(before_, name).sum;
  }
  /// Histogram sum of a *_us histogram, in seconds.
  [[nodiscard]] double hist_s(const std::string& name) const {
    return hist_sum(name) / 1e6;
  }

 private:
  [[nodiscard]] static obs::HistogramSnapshot find(
      const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [key, hist] : snap.histograms) {
      if (key == name) return hist;
    }
    return {};
  }

  bool enabled_;
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Benchmark-owned PathLossProvider decorator: times every footprint()
/// call into the wrapped provider. Touches made by the main thread are
/// charged to the innermost open span (worker-thread touches stay inside
/// the calling layer's self time and show only in the totals).
class TimedProvider final : public pathloss::PathLossProvider {
 public:
  TimedProvider(pathloss::PathLossProvider* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer), main_thread_(std::this_thread::get_id()) {}

  [[nodiscard]] const pathloss::SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override {
    const auto start = Clock::now();
    const pathloss::SectorFootprint& fp = inner_->footprint(sector, tilt);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    touches_.fetch_add(1, std::memory_order_relaxed);
    touch_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
    if (std::this_thread::get_id() == main_thread_) {
      tracer_->charge_touch(static_cast<double>(ns) / 1e9);
    }
    return fp;
  }
  [[nodiscard]] const geo::GridMap& grid() const override {
    return inner_->grid();
  }

  [[nodiscard]] double touches() const {
    return static_cast<double>(touches_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] double touch_s() const {
    return static_cast<double>(touch_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

 private:
  pathloss::PathLossProvider* inner_;
  Tracer* tracer_;
  std::thread::id main_thread_;
  std::atomic<std::uint64_t> touches_{0};
  std::atomic<std::uint64_t> touch_ns_{0};
};

// ---- Per-op results and layer accounting ----------------------------------

/// Per-layer totals accumulated over the traced ops (names as in
/// BENCHMARK.json's per_layer list).
using Totals = std::map<std::string, double>;

struct OpResult {
  double wall_s = 0.0;       ///< whole op
  std::size_t upgrades = 0;  ///< upgrades finished by the throughput pass
  double pass_s = 0.0;       ///< wall of the throughput pass
  double resume_s = 0.0;     ///< crash -> finished work
  std::vector<double> recoveries;  ///< Formula 7, per planned upgrade
  double lost_service_ue_s = 0.0;
  std::vector<std::string> check_failures;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;
  virtual ~Workload() = default;
  /// One op. Every op of a run repeats the same work, which is what the
  /// identity checks compare. Per-layer totals go to `totals` when the
  /// tracer is enabled.
  virtual OpResult op(Tracer& tracer, Totals& totals) = 0;
  [[nodiscard]] virtual bool uses_mmap() const = 0;
};

void add(Totals& totals, const std::string& key, double value) {
  totals[key] += value;
}
void keep_max(Totals& totals, const std::string& key, double value) {
  totals[key] = std::max(totals[key], value);
}

/// Registry counters every workload reports (per op, summed over ops).
void add_registry_counters(const RegistryDiff& diff, Totals& totals) {
  add(totals, "pathloss.opens", diff.counter("pathloss.mmap.opens"));
  add(totals, "pathloss.first_touches",
      diff.counter("pathloss.mmap.first_touches"));
  add(totals, "pathloss.touch_mb",
      diff.counter("pathloss.mmap.touch_bytes") / kMiB);
  add(totals, "pathloss.checksum_failures",
      diff.counter("pathloss.mmap.checksum_failures"));
  add(totals, "model.index_build_s", diff.hist_s("model.index.build_us"));
  add(totals, "model.rebuilds", diff.counter("model.rebuilds"));
  add(totals, "model.rebuild_index_sweeps",
      diff.counter("model.rebuild.index_sweeps"));
  add(totals, "model.rebuild_legacy", diff.counter("model.rebuild.legacy"));
  add(totals, "core.plan_s", diff.hist_s("planner.plan_latency_us"));
  add(totals, "core.evals", diff.counter("evaluator.evals"));
  add(totals, "core.batches", diff.counter("evaluator.batches"));
  add(totals, "core.batched_evals", diff.hist_sum("evaluator.batch_size"));
  add(totals, "core.batch_s", diff.hist_s("evaluator.batch_latency_us"));
  add(totals, "core.queue_wait_s", diff.hist_s("evaluator.queue_wait_us"));
  add(totals, "core.pre_plan_steps", diff.counter("planner.pre_plan_steps"));
  add(totals, "core.polish_steps", diff.counter("planner.polish_steps"));
  add(totals, "core.replans", diff.counter("planner.replans"));
  add(totals, "sim.transitions", diff.counter("sim.migration.transitions"));
  add(totals, "exec.steps", diff.counter("exec.steps"));
  add(totals, "exec.journal_appends", diff.counter("exec.journal.appends"));
  add(totals, "exec.journal_mb",
      diff.counter("exec.journal.append_bytes") / kMiB);
  add(totals, "exec.replayed_records",
      diff.counter("exec.journal.replayed_records"));
  add(totals, "exec.contingency_applies",
      diff.counter("exec.contingency_applies"));
  add(totals, "exec.floor_violations", diff.counter("exec.floor_violations"));
  add(totals, "fleet.acquire_s", diff.hist_s("fleet.store.load_latency_us"));
  add(totals, "fleet.hits", diff.counter("fleet.store.hits"));
  add(totals, "fleet.misses", diff.counter("fleet.store.misses"));
  add(totals, "fleet.evictions", diff.counter("fleet.store.evictions"));
  add(totals, "fleet.releases", diff.counter("fleet.store.releases"));
  keep_max(totals, "model.index_mb",
           obs::MetricsRegistry::global().gauge("model.index.bytes").value() /
               kMiB);
}

/// Every workload's planner caps the involved set at 8 sectors instead of
/// the library's 24. That keeps one op under about a second, so a run
/// takes dozens of samples and its quartiles ride out the shared host's
/// slow spells; at 24 a market_joint op took 3-4 s and a run held a
/// handful of ops.
constexpr std::size_t kMaxNeighbors = 8;

// ---- Shared single-market pieces ------------------------------------------

// Inputs from the seed. Every workload runs on fixed layouts and terrain
// (generator seed 1): any input that changes the plans - a regenerated
// layout, or per-sector loads - moved the search length, and with it every
// timing and quality metric, by 15-40% between seeds. The seed scales each
// market's subscriber load as a whole instead, by a factor within
// kLoadSpread of 1: the performance utility's optimum does not move under
// a uniform load scale, so the search work is the seed's invariant, while
// the served population (and lost service) changes with it.
constexpr std::uint64_t kLayoutSeed = 1;
constexpr double kLoadSpread = 0.03;

[[nodiscard]] double load_factor(util::Xoshiro256ss& rng) {
  return rng.uniform(1.0 - kLoadSpread, 1.0 + kLoadSpread);
}

/// One fixed suburban deployment; load_market() applies the seeded load.
struct MarketScale {
  double region_m;
  double study_m;
};
/// market_joint: the bench scale (14 km region, 6 km study area, 99
/// sectors). campaign_resume: a smaller market from the same generator, so
/// its op - the campaign planned, run through, crashed and resumed, every
/// run re-planning around faults - stays under a second.
constexpr MarketScale kJointScale{14'000.0, 6'000.0};
constexpr MarketScale kCampaignScale{8'000.0, 4'000.0};

[[nodiscard]] data::MarketParams market_params(MarketScale scale) {
  data::MarketParams params;
  params.morphology = data::Morphology::kSuburban;
  params.seed = kLayoutSeed;
  params.region_size_m = scale.region_m;
  params.study_size_m = scale.study_m;
  return params;
}

/// The fixed market with its subscriber load scaled by the seeded factor.
[[nodiscard]] data::Market load_market(MarketScale scale, std::uint64_t seed) {
  data::Market market = data::generate_market(market_params(scale));
  util::Xoshiro256ss rng{seed};
  const double factor = load_factor(rng);
  for (const net::Sector& sector : market.network.sectors()) {
    market.network.set_subscribers(
        sector.id, market.network.subscribers(sector.id) * factor);
  }
  return market;
}

/// Sites whose sectors sit inside the study area, in site-id order.
[[nodiscard]] std::vector<std::vector<net::SectorId>> study_site_targets(
    const data::Market& market) {
  std::vector<std::vector<net::SectorId>> targets;
  for (const net::SiteId site : market.network.sites()) {
    std::vector<net::SectorId> sectors = market.network.sectors_at_site(site);
    if (market.study_area.contains(
            market.network.sector(sectors.front()).position)) {
      targets.push_back(std::move(sectors));
    }
  }
  return targets;
}

[[nodiscard]] std::vector<radio::TiltIndex> tilt_range(
    const net::Network& network) {
  const radio::AntennaParams& antenna = network.sectors().front().antenna;
  std::vector<radio::TiltIndex> tilts;
  for (int t = antenna.min_tilt_index; t <= antenna.max_tilt_index; ++t) {
    tilts.push_back(static_cast<radio::TiltIndex>(t));
  }
  return tilts;
}

/// Writes the market's v3 database (every sector x `tilts`) to `path` from
/// the full propagation stack.
void write_market_db(const data::MarketParams& params,
                     std::span<const radio::TiltIndex> tilts,
                     const std::string& path, std::size_t threads) {
  data::Experiment experiment{params};
  pathloss::PathLossDatabase::LoadReport report;
  const pathloss::PathLossDatabase db =
      experiment.open_footprint_db(path, tilts, threads, &report);
  const pathloss::PathLossDatabase::Probe probe =
      pathloss::PathLossDatabase::probe(path);
  if (!report.resaved || !probe.ok || probe.version != 3) {
    throw std::runtime_error("setup: could not write a v3 database to " +
                             path);
  }
}

/// The cold-open prefix shared by market_joint and campaign_resume: mapped
/// open, model bind (through the timing decorator when tracing) and
/// coverage-index build, each in its own span.
struct BoundMarket {
  std::unique_ptr<pathloss::MappedPathLossDatabase> db;
  std::unique_ptr<TimedProvider> timed;
  std::unique_ptr<model::AnalysisModel> model;
};

[[nodiscard]] BoundMarket open_and_bind(const std::string& db_path,
                                        const net::Network& network,
                                        Tracer& tracer, Totals& totals) {
  BoundMarket bound;
  {
    const Span span{tracer, Layer::kPathloss, "open"};
    const auto start = Clock::now();
    bound.db = std::make_unique<pathloss::MappedPathLossDatabase>(db_path);
    if (tracer.enabled()) add(totals, "pathloss.open_s", seconds_since(start));
  }
  pathloss::PathLossProvider* provider = bound.db.get();
  if (tracer.enabled()) {
    bound.timed = std::make_unique<TimedProvider>(provider, &tracer);
    provider = bound.timed.get();
  }
  {
    const Span span{tracer, Layer::kModel, "bind"};
    const auto start = Clock::now();
    bound.model = std::make_unique<model::AnalysisModel>(&network, provider);
    if (tracer.enabled()) add(totals, "model.bind_s", seconds_since(start));
  }
  {
    const Span span{tracer, Layer::kModel, "index_build"};
    bound.model->market_context().build_coverage_index();
  }
  return bound;
}

void add_touch_totals(const BoundMarket& bound, Totals& totals) {
  if (!bound.timed) return;
  add(totals, "pathloss.touches", bound.timed->touches());
  add(totals, "pathloss.touch_s", bound.timed->touch_s());
}

// ---- market_joint ---------------------------------------------------------

class MarketJoint final : public Workload {
 public:
  /// Every op upgrades the same site: the paper's full-site scenario (the
  /// site nearest the study-area centre). The study-area sites' searches
  /// differ in length by up to 25%, so a run that cycled through them
  /// would report a different mix of sites whenever its op count changed.
  MarketJoint(std::uint64_t seed, std::string dir, std::size_t threads)
      : market_(load_market(kJointScale, seed)),
        db_path_(dir + "/market_joint.v3"),
        threads_(threads),
        targets_(data::upgrade_targets(market_,
                                       data::UpgradeScenario::kFullSite)) {}

  /// The database covers the antenna's full tilt range: joint tuning
  /// touches tilts on both sides of the planned one.
  static void setup(const std::string& dir, std::size_t threads) {
    const data::Market market =
        data::generate_market(market_params(kJointScale));
    write_market_db(market_params(kJointScale), tilt_range(market.network),
                    dir + "/market_joint.v3", threads);
  }

  [[nodiscard]] bool uses_mmap() const override {
    return pathloss::MappedPathLossDatabase{db_path_}.using_mmap();
  }

  OpResult op(Tracer& tracer, Totals& totals) override {
    OpResult result;
    const auto start = Clock::now();
    RegistryDiff diff{tracer.enabled()};
    BoundMarket bound = open_and_bind(db_path_, market_.network, tracer, totals);

    core::MitigationPlan plan;
    {
      const Span span{tracer, Layer::kCore, "plan_upgrade"};
      core::Evaluator evaluator{bound.model.get(),
                                core::Utility::performance()};
      core::PlannerOptions options;
      options.mode = core::TuningMode::kJoint;
      options.threads = threads_;
      options.max_neighbors = kMaxNeighbors;
      const core::MagusPlanner planner{&evaluator, options};
      plan = planner.plan_upgrade(targets_);
    }
    sim::MigrationSimResult sim_result;
    {
      const Span span{tracer, Layer::kSim, "simulate"};
      const auto sim_start = Clock::now();
      const sim::MigrationSimulator simulator;
      sim_result = simulator.simulate(plan.gradual.snapshots,
                                      bound.model->ue_density(), 60.0);
      if (tracer.enabled()) {
        add(totals, "sim.simulate_s", seconds_since(sim_start));
      }
    }
    result.wall_s = seconds_since(start);
    result.pass_s = result.wall_s;
    result.upgrades = 1;
    // No journal: a crash loses the in-flight upgrade, and recovery is
    // the whole cold-open-to-simulation path again.
    result.resume_s = result.wall_s;
    result.recoveries.push_back(plan.recovery);
    result.lost_service_ue_s = sim_result.total_outage_ue_seconds;

    const std::uint64_t fp =
        fleet::plan_fingerprint(plan.search.config, plan.recovery);
    if (plan_fp_ && *plan_fp_ != fp) {
      result.check_failures.push_back(
          "market_joint: a repeated upgrade planned to a different "
          "fingerprint");
    }
    plan_fp_ = fp;
    if (sim_result.steps.empty() || !std::isfinite(plan.recovery)) {
      result.check_failures.push_back("market_joint: empty migration");
    }
    if (tracer.enabled()) {
      diff.finish();
      add_registry_counters(diff, totals);
      add_touch_totals(bound, totals);
    }
    return result;
  }

 private:
  data::Market market_;
  std::string db_path_;
  std::size_t threads_;
  std::vector<net::SectorId> targets_;
  std::optional<std::uint64_t> plan_fp_;
};

// ---- campaign_resume ------------------------------------------------------

[[nodiscard]] std::vector<std::string> trace_dumps(
    const exec::CampaignResult& result) {
  std::vector<std::string> dumps;
  for (const exec::UpgradeResult& upgrade : result.upgrades) {
    dumps.push_back(std::to_string(upgrade.upgrade) + "/" +
                    std::to_string(upgrade.window) + "/" +
                    exec::upgrade_outcome_name(upgrade.outcome) + "/" +
                    upgrade.trace.to_json().dump());
  }
  return dumps;
}

[[nodiscard]] double lost_service(const exec::CampaignResult& result) {
  double total = 0.0;
  for (const exec::UpgradeResult& upgrade : result.upgrades) {
    total += upgrade.trace.total_lost_service_ue_seconds;
  }
  return total;
}

class CampaignResume final : public Workload {
 public:
  static constexpr double kOutageProbability = 0.15;
  static constexpr int kQuarantineThreshold = 2;
  /// One sector's outage moves market utility by ~0.1%; the default 5%
  /// divergence band would absorb every fault without climbing the
  /// recovery ladder.
  static constexpr double kUtilityTolerance = 1e-4;
  /// Fixed like the layout: the fault draws decide how much of the
  /// campaign re-plans and where its journal midpoint falls, which moved
  /// resume_s and lost service by half between campaign seeds.
  static constexpr std::uint64_t kCampaignSeed = 1;

  CampaignResume(std::uint64_t seed, std::string dir, std::size_t threads)
      : market_(load_market(kCampaignScale, seed)),
        dir_(std::move(dir)),
        db_path_(dir_ + "/campaign.v3"),
        threads_(threads),
        sites_(study_site_targets(market_)) {
    if (sites_.size() < 2) {
      throw std::runtime_error("market has fewer than two study sites");
    }
  }

  /// Power tuning reads tilt 0 only, so the database holds tilt 0.
  static void setup(const std::string& dir, std::size_t threads) {
    const radio::TiltIndex tilts[] = {0};
    write_market_db(market_params(kCampaignScale), tilts,
                    dir + "/campaign.v3", threads);
  }

  [[nodiscard]] bool uses_mmap() const override {
    return pathloss::MappedPathLossDatabase{db_path_}.using_mmap();
  }

  OpResult op(Tracer& tracer, Totals& totals) override {
    OpResult result;
    const auto start = Clock::now();
    RegistryDiff diff{tracer.enabled()};
    BoundMarket bound = open_and_bind(db_path_, market_.network, tracer, totals);
    core::Evaluator evaluator{bound.model.get(), core::Utility::performance()};
    core::PlannerOptions options;
    options.mode = core::TuningMode::kPower;
    options.threads = threads_;
    options.max_neighbors = kMaxNeighbors;
    const core::MagusPlanner planner{&evaluator, options};

    std::vector<traffic::PlannedUpgrade> upgrades;
    std::uint64_t fp = util::kFnv1aOffsetBasis;
    for (const std::vector<net::SectorId>& targets : sites_) {
      const Span span{tracer, Layer::kCore, "plan_upgrade"};
      const core::MitigationPlan plan = planner.plan_upgrade(targets);
      traffic::PlannedUpgrade upgrade;
      upgrade.targets = plan.targets;
      upgrade.involved = plan.involved;
      upgrades.push_back(std::move(upgrade));
      result.recoveries.push_back(plan.recovery);
      fp = fleet::plan_fingerprint(plan.search.config, plan.recovery, fp);
    }
    traffic::CampaignSchedule schedule;
    {
      const Span span{tracer, Layer::kTraffic, "schedule_campaign"};
      const auto schedule_start = Clock::now();
      schedule = traffic::schedule_campaign(upgrades);
      if (tracer.enabled()) {
        add(totals, "traffic.schedule_s", seconds_since(schedule_start));
        add(totals, "traffic.windows",
            static_cast<double>(schedule.window_count()));
      }
    }

    exec::CampaignOptions copts;
    copts.seed = kCampaignSeed;
    copts.quarantine.fault_threshold = kQuarantineThreshold;
    copts.executor.utility_tolerance = kUtilityTolerance;
    const exec::CampaignRunner runner{&evaluator, &planner, copts};
    exec::CampaignEnv env;
    env.injector_factory =
        [&](std::size_t upgrade) -> std::unique_ptr<exec::FaultInjector> {
      exec::RandomFaultOptions fopts;
      fopts.outage_probability_per_step = kOutageProbability;
      fopts.outage_candidates = upgrades[upgrade].involved;
      return std::make_unique<exec::RandomFaultInjector>(
          exec::upgrade_seed(copts.seed, upgrade), fopts);
    };

    // Uninterrupted journaled run: the throughput pass and the reference.
    const std::string clean_path = dir_ + "/clean.wal";
    exec::CampaignResult reference;
    std::uint64_t records = 0;
    {
      exec::Journal journal{clean_path, exec::Journal::Mode::kTruncate};
      env.journal = &journal;
      reference = run_campaign(runner, upgrades, schedule, env, tracer,
                               totals, "run");
      records = journal.records_written();
    }
    result.pass_s = seconds_since(start);
    result.upgrades = reference.upgrades.size();

    // The same campaign, crashed at its journal midpoint...
    const std::string crash_path = dir_ + "/crash.wal";
    bool crashed = false;
    {
      exec::Journal journal{crash_path, exec::Journal::Mode::kTruncate};
      journal.set_crash_after(records / 2);
      env.journal = &journal;
      try {
        (void)run_campaign(runner, upgrades, schedule, env, tracer, totals,
                           "run_to_crash");
      } catch (const exec::JournalCrash&) {
        crashed = true;
      }
    }
    // ...then replayed and resumed.
    const auto resume_start = Clock::now();
    {
      exec::Journal journal{crash_path, exec::Journal::Mode::kContinue};
      exec::Journal::Replay replay;
      {
        const Span span{tracer, Layer::kExec, "replay"};
        const auto replay_start = Clock::now();
        replay = exec::Journal::replay(crash_path);
        if (tracer.enabled()) {
          add(totals, "exec.replay_s", seconds_since(replay_start));
        }
      }
      env.journal = &journal;
      env.recovered = replay.records;
      const exec::CampaignResult resumed = run_campaign(
          runner, upgrades, schedule, env, tracer, totals, "resume");
      result.resume_s = seconds_since(resume_start);
      if (trace_dumps(resumed) != trace_dumps(reference) ||
          !resumed.completed) {
        result.check_failures.push_back(
            "campaign_resume: resumed traces differ from the uninterrupted "
            "run");
      }
    }
    result.wall_s = seconds_since(start);
    result.lost_service_ue_s = lost_service(reference);

    if (!crashed) {
      result.check_failures.push_back(
          "campaign_resume: the armed crash point never fired");
    }
    if (plan_fp_ && *plan_fp_ != fp) {
      result.check_failures.push_back(
          "campaign_resume: campaign planned to a different fingerprint");
    }
    plan_fp_ = fp;
    if (tracer.enabled()) {
      diff.finish();
      add_registry_counters(diff, totals);
      add_touch_totals(bound, totals);
    }
    return result;
  }

 private:
  /// CampaignRunner::run inside an exec span; the planner time inside it
  /// (plan_upgrade, per the registry) becomes the span's core child.
  [[nodiscard]] static exec::CampaignResult run_campaign(
      const exec::CampaignRunner& runner,
      std::span<const traffic::PlannedUpgrade> upgrades,
      const traffic::CampaignSchedule& schedule, const exec::CampaignEnv& env,
      Tracer& tracer, Totals& totals, const char* name) {
    const Span span{tracer, Layer::kExec, name};
    RegistryDiff diff{tracer.enabled()};
    const auto start = Clock::now();
    struct Charge {
      Tracer& tracer;
      Totals& totals;
      RegistryDiff& diff;
      int span;
      Clock::time_point start;
      ~Charge() {
        if (!tracer.enabled()) return;
        diff.finish();
        const double replan = diff.hist_s("planner.plan_latency_us");
        add(totals, "exec.run_s", seconds_since(start));
        add(totals, "exec.replan_s", replan);
        tracer.derive(span, Layer::kCore, "plan_upgrade", replan);
      }
    } charge{tracer, totals, diff, span.id(), start};
    return runner.run(upgrades, schedule, env);
  }

  data::Market market_;
  std::string dir_;
  std::string db_path_;
  std::size_t threads_;
  std::vector<std::vector<net::SectorId>> sites_;
  std::optional<std::uint64_t> plan_fp_;
};

// ---- fleet_wave -----------------------------------------------------------

constexpr std::size_t kFleetMarkets = 8;
constexpr std::size_t kFleetSitesPerMarket = 2;

/// 8 markets of 5 km / 3 km on fixed layouts. Morphologies are assigned
/// round-robin (urban, suburban, rural) instead of drawn, and the seed
/// scales each market's mean subscriber load (the generator draws the
/// subscriber counts from their own stream, so the layout stays put).
[[nodiscard]] std::vector<fleet::MarketSpec> fleet_specs(std::uint64_t seed) {
  data::FleetParams params;
  params.seed = kLayoutSeed;
  params.markets = kFleetMarkets;
  params.base.region_size_m = 5'000.0;
  params.base.study_size_m = 3'000.0;
  std::vector<fleet::MarketSpec> specs = fleet::specs_from_fleet(params);
  constexpr std::array<data::Morphology, 3> kMix = {
      data::Morphology::kUrban, data::Morphology::kSuburban,
      data::Morphology::kRural};
  util::Xoshiro256ss rng{seed};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    data::MarketParams& market = specs[i].params;
    market.morphology = kMix[i % kMix.size()];
    market.subscribers_per_sector_mean =
        market.resolved().subscribers_per_sector_mean * load_factor(rng);
  }
  return specs;
}

[[nodiscard]] fleet::WavePlannerOptions fleet_planner_options(
    std::size_t threads) {
  fleet::WavePlannerOptions options;
  options.planner.mode = core::TuningMode::kPower;
  options.planner.max_neighbors = kMaxNeighbors;
  options.threads = threads;
  return options;
}

[[nodiscard]] std::vector<fleet::MarketUpgradeRequest> fleet_requests(
    const std::vector<fleet::MarketSpec>& specs) {
  std::vector<fleet::MarketUpgradeRequest> requests;
  for (const fleet::MarketSpec& spec : specs) {
    requests.push_back({spec.id, kFleetSitesPerMarket});
  }
  return requests;
}

[[nodiscard]] std::map<fleet::MarketId, std::vector<std::string>>
fleet_trace_dumps(const fleet::FleetExecutionResult& result) {
  std::map<fleet::MarketId, std::vector<std::string>> dumps;
  for (const fleet::MarketExecution& market : result.markets) {
    dumps[market.market] = trace_dumps(market.result);
  }
  return dumps;
}

class FleetWave final : public Workload {
 public:
  struct Reference {
    std::size_t peak_bytes = 0;
    std::uint64_t fingerprint = 0;
  };

  FleetWave(std::uint64_t seed, std::string dir, std::size_t threads,
            Reference reference)
      : seed_(seed),
        dir_(std::move(dir)),
        threads_(threads),
        specs_(fleet_specs(seed)),
        requests_(fleet_requests(specs_)),
        reference_(reference) {}

  /// Builds every market's v3 database (first acquire) and runs the
  /// unbounded reference pass: its peak sizes the budget, its fingerprint
  /// is what every budgeted pass must reproduce.
  static Reference setup(std::uint64_t seed, const std::string& dir,
                         std::size_t threads) {
    const std::vector<fleet::MarketSpec> specs = fleet_specs(seed);
    fleet::StoreOptions store_options;
    store_options.db_dir = dir + "/dbs";
    store_options.threads = threads;
    fleet::MarketStore store{specs, store_options};
    fleet::WavePlanner planner{&store, fleet_planner_options(threads)};
    const fleet::FleetWavePlan plan = planner.plan(fleet_requests(specs));
    return {store.peak_resident_bytes(), plan.fleet_fingerprint()};
  }

  [[nodiscard]] bool uses_mmap() const override {
    fleet::StoreOptions options;
    options.db_dir = dir_ + "/dbs";
    fleet::MarketStore store{specs_, options};
    return store.acquire(specs_.front().id)->streaming();
  }

  OpResult op(Tracer& tracer, Totals& totals) override {
    OpResult result;
    const auto start = Clock::now();
    RegistryDiff op_diff{tracer.enabled()};
    fleet::StoreOptions store_options;
    store_options.db_dir = dir_ + "/dbs";
    store_options.threads = threads_;
    store_options.byte_budget =
        std::max<std::size_t>(reference_.peak_bytes / 4, 1);
    fleet::MarketStore store{specs_, store_options};
    fleet::WavePlanner planner{&store, fleet_planner_options(threads_)};

    fleet::FleetWavePlan plan;
    {
      const Span span{tracer, Layer::kFleet, "plan"};
      RegistryDiff diff{tracer.enabled()};
      const auto plan_start = Clock::now();
      plan = planner.plan(requests_);
      if (tracer.enabled()) {
        diff.finish();
        add(totals, "fleet.plan_s", seconds_since(plan_start));
        add(totals, "traffic.windows",
            static_cast<double>(plan.wave.makespan()));
        derive_store_and_planner(tracer, span.id(), diff);
      }
    }
    if (plan.fleet_fingerprint() != reference_.fingerprint) {
      result.check_failures.push_back(
          "fleet_wave: budgeted fleet fingerprint differs from the "
          "unbounded one");
    }
    fleet::FleetExecutionOptions exec_options;
    exec_options.campaign.seed = seed_;
    exec_options.journal_dir = dir_ + "/journals";
    fs::remove_all(exec_options.journal_dir);
    const fleet::FleetExecutionResult executed =
        execute(planner, plan, exec_options, tracer, totals, "execute");
    result.pass_s = seconds_since(start);
    result.upgrades = executed.upgrades_completed +
                      executed.upgrades_rolled_back +
                      executed.upgrades_skipped;
    if (!executed.completed ||
        executed.upgrades_completed != plan.upgrades_total()) {
      result.check_failures.push_back(
          "fleet_wave: not every planned upgrade completed");
    }

    // Crash at the wave midpoint: markets after it never started, the
    // midpoint market's journal is torn halfway through its bytes.
    crash_at_midpoint(executed, exec_options.journal_dir);
    exec_options.resume = true;
    const auto resume_start = Clock::now();
    const fleet::FleetExecutionResult resumed =
        execute(planner, plan, exec_options, tracer, totals, "resume");
    result.resume_s = seconds_since(resume_start);
    if (fleet_trace_dumps(resumed) != fleet_trace_dumps(executed)) {
      result.check_failures.push_back(
          "fleet_wave: resumed traces differ from the uninterrupted run");
    }
    result.wall_s = seconds_since(start);
    fs::remove_all(exec_options.journal_dir);

    for (const fleet::MarketPlan& market : plan.markets) {
      result.recoveries.insert(result.recoveries.end(),
                               market.recoveries.begin(),
                               market.recoveries.end());
    }
    for (const fleet::MarketExecution& market : executed.markets) {
      result.lost_service_ue_s += lost_service(market.result);
    }
    if (tracer.enabled()) {
      op_diff.finish();
      add_registry_counters(op_diff, totals);
      keep_max(totals, "fleet.enforced_peak_mb",
               static_cast<double>(store.enforced_peak_bytes()) / kMiB);
    }
    return result;
  }

 private:
  /// Children of a fleet span from the registry: store acquires (fleet),
  /// planner time (core) and coverage-index builds (model). The index is
  /// built when WavePlanner constructs a market's MagusPlanner, outside
  /// both the acquire and plan_upgrade, so it is a child of the fleet span.
  static void derive_store_and_planner(Tracer& tracer, int parent,
                                       const RegistryDiff& diff) {
    tracer.derive(parent, Layer::kFleet, "acquire",
                  diff.hist_s("fleet.store.load_latency_us"));
    tracer.derive(parent, Layer::kModel, "index_build",
                  diff.hist_s("model.index.build_us"));
    tracer.derive(parent, Layer::kCore, "plan_upgrade",
                  diff.hist_s("planner.plan_latency_us"));
  }

  /// WavePlanner::execute in a fleet span. Its acquires stay fleet time and
  /// its index builds (MagusPlanner construction, before each market's
  /// campaign) model time; the rest is the per-market CampaignRunner
  /// (exec), whose plan_upgrade calls are core time.
  [[nodiscard]] static fleet::FleetExecutionResult execute(
      fleet::WavePlanner& planner, const fleet::FleetWavePlan& plan,
      const fleet::FleetExecutionOptions& options, Tracer& tracer,
      Totals& totals, const char* name) {
    const Span span{tracer, Layer::kFleet, name};
    RegistryDiff diff{tracer.enabled()};
    const auto start = Clock::now();
    fleet::FleetExecutionResult result = planner.execute(plan, options);
    if (tracer.enabled()) {
      diff.finish();
      const double wall = seconds_since(start);
      const double acquire = diff.hist_s("fleet.store.load_latency_us");
      const double index = diff.hist_s("model.index.build_us");
      const double replan = diff.hist_s("planner.plan_latency_us");
      const double run = wall - acquire - index;
      add(totals, "fleet.execute_s", wall);
      add(totals, "exec.run_s", run);
      add(totals, "exec.replan_s", replan);
      tracer.derive(span.id(), Layer::kFleet, "acquire", acquire);
      tracer.derive(span.id(), Layer::kModel, "index_build", index);
      const int runner =
          tracer.derive(span.id(), Layer::kExec, "campaign_runner", run);
      tracer.derive(runner, Layer::kCore, "plan_upgrade", replan);
    }
    return result;
  }

  static void crash_at_midpoint(const fleet::FleetExecutionResult& executed,
                                const std::string& journal_dir) {
    const std::size_t mid = executed.markets.size() / 2;
    for (std::size_t i = mid; i < executed.markets.size(); ++i) {
      const fs::path path =
          fs::path{journal_dir} /
          ("market_" + std::to_string(executed.markets[i].market) +
           ".journal");
      if (i == mid) {
        fs::resize_file(path, fs::file_size(path) / 2);
      } else {
        fs::remove(path);
      }
    }
  }

  std::uint64_t seed_;
  std::string dir_;
  std::size_t threads_;
  std::vector<fleet::MarketSpec> specs_;
  std::vector<fleet::MarketUpgradeRequest> requests_;
  Reference reference_;
};

// ---- Measurement ----------------------------------------------------------

/// Worker threads of every workload, set-up included. The benchmark runs
/// on a few cores of a shared host: at 2 and 4 threads a run's speed
/// followed the neighbours' load (run medians spread 30-50% between runs),
/// and the searches ran barely faster than at one thread anyway.
constexpr std::size_t kThreads = 1;

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Measured {
  std::vector<OpResult> ops;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// Closed loop: runs ops back to back until `seconds` elapsed (at least
/// one op) or, when `count` is set, exactly `count` ops.
Measured measure(Workload& workload, Tracer& tracer, Totals& totals,
                 double seconds, std::optional<std::size_t> count) {
  Measured measured;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool done = count ? i >= *count
                            : (i > 0 && seconds_since(start) >= seconds);
    if (done) break;
    try {
      OpResult result = workload.op(tracer, totals);
      if (!result.check_failures.empty()) {
        ++measured.failed;
        for (const std::string& failure : result.check_failures) {
          measured.errors.push_back(failure);
        }
      }
      measured.ops.push_back(std::move(result));
    } catch (const std::exception& error) {
      ++measured.failed;
      measured.errors.push_back(error.what());
      measured.ops.push_back({});
    }
  }
  return measured;
}

[[nodiscard]] std::vector<double> op_walls(const Measured& measured) {
  std::vector<double> walls;
  for (const OpResult& op : measured.ops) walls.push_back(op.wall_s);
  return walls;
}

/// The end-to-end metrics of an untraced measurement.
[[nodiscard]] util::JsonObject end_to_end_metrics(const Measured& measured) {
  std::vector<double> per_upgrade;
  std::vector<double> throughputs;
  std::vector<double> resumes;
  std::vector<double> recoveries;
  std::vector<double> lost;
  for (const OpResult& op : measured.ops) {
    if (op.upgrades == 0) continue;
    per_upgrade.push_back(op.pass_s / static_cast<double>(op.upgrades));
    throughputs.push_back(static_cast<double>(op.upgrades) / op.pass_s);
    resumes.push_back(op.resume_s);
    // Formula 7 is unbounded below when an upgrade raises utility (its
    // denominator flips sign), so one such upgrade could swamp the mean:
    // each ratio counts clipped to [0, 1].
    for (const double recovery : op.recoveries) {
      recoveries.push_back(std::clamp(recovery, 0.0, 1.0));
    }
    lost.push_back(op.lost_service_ue_s);
  }
  const auto attempted = static_cast<double>(measured.ops.size());
  util::JsonObject metrics;
  // Timings are the run's fastest quarter: ops repeat the same work, and
  // the shared host only ever slows one down, so the lower quartile
  // tracks the code while the neighbours' slow spells cover less than
  // three quarters of a run.
  metrics.set("upgrade_s_p25", quantile(per_upgrade, 0.25));
  metrics.set("upgrades_per_s", quantile(throughputs, 0.75));
  metrics.set("resume_s", quantile(resumes, 0.25));
  metrics.set("peak_rss_mb", peak_rss_mib());
  metrics.set("recovery_mean", mean(recoveries));
  metrics.set("lost_service_ue_s", mean(lost));
  metrics.set("ok_frac",
              (attempted - static_cast<double>(measured.failed)) / attempted);
  return metrics;
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Per-layer metrics of a traced measurement: per-op means of the totals,
/// ratios from the totals, the tracer's per-layer self time and residual.
[[nodiscard]] util::JsonObject per_layer_metrics(const Totals& totals,
                                                 const Tracer& tracer,
                                                 const Measured& untraced,
                                                 const Measured& traced) {
  const auto ops = static_cast<double>(std::max<std::size_t>(
      1, traced.ops.size()));
  const auto total = [&](const std::string& key) {
    const auto it = totals.find(key);
    return it == totals.end() ? 0.0 : it->second;
  };
  util::JsonObject metrics;
  const char* per_op[] = {
      "pathloss.open_s",        "pathloss.opens",
      "pathloss.touch_s",       "pathloss.touches",
      "pathloss.touch_mb",      "pathloss.checksum_failures",
      "model.bind_s",           "model.index_build_s",
      "model.rebuilds",         "model.rebuild_index_sweeps",
      "model.rebuild_legacy",   "core.plan_s",
      "core.evals",             "core.batches",
      "core.queue_wait_s",      "core.pre_plan_steps",
      "core.polish_steps",      "core.replans",
      "sim.simulate_s",         "sim.transitions",
      "traffic.schedule_s",     "traffic.windows",
      "exec.run_s",             "exec.replan_s",
      "exec.steps",             "exec.journal_appends",
      "exec.journal_mb",        "exec.replay_s",
      "exec.replayed_records",  "exec.contingency_applies",
      "exec.floor_violations",  "fleet.plan_s",
      "fleet.execute_s",        "fleet.acquire_s",
      "fleet.misses",           "fleet.evictions",
      "fleet.releases"};
  for (const char* key : per_op) metrics.set(key, total(key) / ops);
  metrics.set("pathloss.first_touch_frac",
              ratio(total("pathloss.first_touches"), total("pathloss.touches")));
  metrics.set("model.index_mb", total("model.index_mb"));
  metrics.set("core.evals_per_s", ratio(total("core.evals"),
                                        total("core.plan_s")));
  metrics.set("core.batch_size_mean",
              ratio(total("core.batched_evals"), total("core.batches")));
  metrics.set("core.batch_share",
              ratio(total("core.batch_s"), total("core.plan_s")));
  metrics.set("fleet.hit_ratio",
              ratio(total("fleet.hits"),
                    total("fleet.hits") + total("fleet.misses")));
  metrics.set("fleet.enforced_peak_mb", total("fleet.enforced_peak_mb"));

  const std::array<double, kLayerCount> self = tracer.self_seconds();
  double self_sum = 0.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    metrics.set(std::string{kLayerNames[l]} + ".self_s", self[l] / ops);
    self_sum += self[l];
  }
  const std::vector<double> traced_walls = op_walls(traced);
  const double traced_wall = std::accumulate(traced_walls.begin(),
                                             traced_walls.end(), 0.0);
  metrics.set("trace.wall_s", traced_wall / ops);
  metrics.set("trace.residual_s", (traced_wall - self_sum) / ops);
  metrics.set("trace.overhead_s",
              mean(traced_walls) - mean(op_walls(untraced)));
  return metrics;
}

[[nodiscard]] const char* simd_backend() {
  switch (MAGUS_SIMD_LEVEL) {
    case 1:
      return "SSE2";
    case 2:
      return "AVX2";
    case 3:
      return "NEON";
    default:
      return "scalar";
  }
}

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const std::string& dir,
    std::size_t threads, const util::ArgParser& args) {
  if (name == "market_joint") {
    return std::make_unique<MarketJoint>(seed, dir, threads);
  }
  if (name == "campaign_resume") {
    return std::make_unique<CampaignResume>(seed, dir, threads);
  }
  FleetWave::Reference reference;
  reference.peak_bytes =
      static_cast<std::size_t>(args.get_int("fleet-peak-bytes"));
  reference.fingerprint =
      std::stoull(args.get_string("fleet-fingerprint"), nullptr, 16);
  return std::make_unique<FleetWave>(seed, dir, threads, reference);
}

void run_setup(const std::string& workload, std::uint64_t seed,
               const std::string& dir, std::size_t threads,
               util::JsonObject& out) {
  const auto start = Clock::now();
  if (workload == "market_joint") {
    MarketJoint::setup(dir, threads);
  } else if (workload == "campaign_resume") {
    CampaignResume::setup(dir, threads);
  } else {
    const FleetWave::Reference reference =
        FleetWave::setup(seed, dir, threads);
    out.set("fleet_peak_bytes",
            static_cast<std::int64_t>(reference.peak_bytes));
    std::ostringstream hex;
    hex << std::hex << reference.fingerprint;
    out.set("fleet_fingerprint", hex.str());
  }
  out.set("setup_s", seconds_since(start));
}

void run_measure(const std::string& workload, std::uint64_t seed,
                 const std::string& dir, std::size_t threads, double seconds,
                 bool trace, const util::ArgParser& args,
                 util::JsonObject& out) {
  const std::unique_ptr<Workload> bench =
      make_workload(workload, seed, dir, threads, args);
  Tracer off{false};
  Totals unused;
  util::JsonObject metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  util::JsonArray errors;
  util::JsonArray walls;
  const auto record = [&](const Measured& m) {
    attempted += m.ops.size();
    failed += m.failed;
    for (const std::string& error : m.errors) errors.push_back(error);
    for (const double wall : op_walls(m)) walls.push_back(wall);
  };
  // One untimed warm-up op first: a run's first op took up to 47% longer
  // than its second, and the run's peak RSS grew from the first op to the
  // second. The warm-up's checks still count.
  record(measure(*bench, off, unused, 0.0, 1));
  if (!trace) {
    const Measured measured = measure(*bench, off, unused, seconds, {});
    record(measured);
    metrics = end_to_end_metrics(measured);
  } else {
    // Untraced half first, then the same ops traced.
    const Measured untraced =
        measure(*bench, off, unused, seconds / 2.0, {});
    Tracer tracer{true};
    Totals totals;
    const Measured traced =
        measure(*bench, tracer, totals, 0.0, untraced.ops.size());
    record(untraced);
    record(traced);
    metrics = per_layer_metrics(totals, tracer, untraced, traced);
    if (const std::string path = args.get_string("trace-out");
        !path.empty()) {
      tracer.write_chrome_trace(path);
    }
  }
  util::JsonObject meta;
  meta.set("nproc", static_cast<std::int64_t>(
                        std::thread::hardware_concurrency()));
  meta.set("threads", static_cast<std::int64_t>(threads));
  meta.set("simd_backend", simd_backend());
  meta.set("mmap", bench->uses_mmap());
  out.set("attempted", static_cast<std::int64_t>(attempted));
  out.set("failed", static_cast<std::int64_t>(failed));
  out.set("errors", std::move(errors));
  out.set("op_walls_s", std::move(walls));
  out.set("metrics", std::move(metrics));
  out.set("meta", std::move(meta));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args{"End-to-end upgrade benchmark (see run.py)"};
  args.add_flag("phase", "run", "setup | run");
  args.add_flag("workload", "market_joint",
                "market_joint | fleet_wave | campaign_resume");
  args.add_flag("seed", "1", "input seed");
  args.add_flag("dir", "", "setup directory (fresh for setup, reused by run)");
  args.add_flag("seconds", "10", "measurement budget (run phase)");
  args.add_flag("trace", "0", "1 = traced run (per-layer metrics)");
  args.add_flag("trace-out", "", "Chrome trace JSON of the traced ops");
  args.add_flag("fleet-peak-bytes", "0", "fleet_wave: setup's unbounded peak");
  args.add_flag("fleet-fingerprint", "0",
                "fleet_wave: setup's unbounded fleet fingerprint (hex)");
  args.add_flag("out", "", "result JSON path");
  try {
    if (!args.parse(argc, argv)) return 0;
    const std::string workload = args.get_string("workload");
    if (workload != "market_joint" && workload != "fleet_wave" &&
        workload != "campaign_resume") {
      throw std::runtime_error("unknown workload " + workload);
    }
    const std::string dir = args.get_string("dir");
    const std::string out_path = args.get_string("out");
    if (dir.empty() || out_path.empty()) {
      throw std::runtime_error("--dir and --out are required");
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
    const std::size_t threads = kThreads;
    util::JsonObject out;
    if (args.get_string("phase") == "setup") {
      fs::create_directories(dir);
      run_setup(workload, seed, dir, threads, out);
    } else {
      run_measure(workload, seed, dir, threads, args.get_double("seconds"),
                  args.get_int("trace") != 0, args, out);
    }
    out.write_file(out_path);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_e2e: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
