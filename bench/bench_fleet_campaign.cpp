// Fleet campaign bench: metro-scale planning through the fleet stack
// (MarketStore + WavePlanner) at 100+ markets / 3000+ sectors.
//
// Three passes over the same fleet:
//
//   A  unconstrained store (byte_budget = 0): every market stays resident.
//      Every market is acquired once before planning starts, and that
//      warm-up (which builds and saves each market's path-loss database on
//      a fresh --db-dir) is reported as db_build_seconds, so
//      plan_seconds_unbounded is planning time only. Yields the fleet's
//      peak resident bytes, per-market fingerprints and planning
//      throughput (markets per second).
//   B  budget-capped store (default: a quarter of pass A's peak): the LRU
//      must evict; a re-planning round over the first --replan markets
//      then forces evicted markets to rematerialize from their on-disk
//      databases. The bench asserts the reloaded markets plan to the exact
//      fingerprints pass A produced (plans_identical_under_eviction) —
//      eviction is a memory knob, never a results knob.
//      Pass B's plan is then executed fault-free on the capped store.
//      Every upgrade must run the plan carried from planning
//      (plans_replanned == 0), so execution costs no search.
//   C  standalone cross-check: --samples markets re-planned through a
//      plain data::Experiment + core::MagusPlanner, no store, no database
//      (lazy path-loss construction). Their fingerprints must match the
//      store path bit for bit (plans_match_single_market) — the fleet
//      stack is a cache around the single-market pipeline, not a different
//      model. The same markets are executed once more with their plans
//      stripped, so every upgrade is re-planned when it runs; the campaign
//      results must equal the carried-plan execution byte for byte
//      (execute_matches_replanned).
//
// --json writes the committed BENCH_fleet.json baseline.
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "fleet/wave_planner.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/checksum.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace magus;

/// Standalone single-market fingerprint for one fleet market: the same
/// upgrade targets planned through a fresh Experiment (lazy footprints,
/// own planner) — no fleet code in the loop.
[[nodiscard]] std::uint64_t standalone_fingerprint(
    const data::MarketParams& params, std::size_t max_sites,
    const fleet::WavePlannerOptions& options) {
  data::Experiment experiment{params};
  core::Evaluator evaluator{&experiment.model(), options.utility};
  core::PlannerOptions popts = options.planner;
  popts.shared_pool = nullptr;
  popts.threads = options.threads;
  const core::MagusPlanner planner{&evaluator, popts};
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (const auto& targets :
       fleet::upgrade_targets_for(experiment.network(), max_sites)) {
    const core::MitigationPlan plan = planner.plan_upgrade(targets);
    hash = fleet::plan_fingerprint(plan.search.config, plan.recovery, hash);
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;

  util::ArgParser args{
      "Fleet campaign: byte-budgeted multi-market planning via the fleet "
      "stack"};
  args.add_flag("markets", "100", "fleet size");
  args.add_flag("sites", "1", "upgrade sites planned per market");
  args.add_flag("region-km", "5", "per-market analysis region edge (km)");
  args.add_flag("study-km", "3", "per-market study area edge (km)");
  args.add_flag("seed", "1", "fleet seed");
  args.add_flag("crew-cap", "4", "markets staffable per shared window");
  args.add_flag("budget-mb", "0",
                "store byte budget for pass B (0 = peak/4 from pass A)");
  args.add_flag("replan", "8",
                "markets re-planned in pass B's eviction/reload round");
  args.add_flag("samples", "3",
                "markets cross-checked against the standalone planner");
  args.add_flag("db-dir", "bench_fleet_db", "per-market database directory");
  args.add_flag("json", "", "optional JSON summary path (BENCH_fleet.json)");
  util::add_threads_flag(args);
  util::add_obs_flags(args);
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  const obs::ObsSession obs_session{args};
  const auto markets = static_cast<std::size_t>(args.get_int("markets"));
  const auto sites = static_cast<std::size_t>(args.get_int("sites"));
  const auto threads = static_cast<std::size_t>(args.get_int("threads"));
  const auto replan_count =
      std::min(static_cast<std::size_t>(args.get_int("replan")), markets);
  const auto sample_count =
      std::min(static_cast<std::size_t>(args.get_int("samples")), markets);

  data::FleetParams fleet_params;
  fleet_params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  fleet_params.markets = markets;
  fleet_params.base.region_size_m = args.get_double("region-km") * 1000.0;
  fleet_params.base.study_size_m = args.get_double("study-km") * 1000.0;
  const std::vector<fleet::MarketSpec> specs =
      fleet::specs_from_fleet(fleet_params);

  std::size_t sectors_total = 0;
  for (const fleet::MarketSpec& spec : specs) {
    sectors_total += data::generate_market(spec.params).network.sectors().size();
  }

  fleet::StoreOptions store_options;
  store_options.db_dir = args.get_string("db-dir");
  store_options.threads = threads;

  fleet::WavePlannerOptions planner_options;
  planner_options.planner.mode = core::TuningMode::kPower;
  planner_options.crew_cap =
      static_cast<std::size_t>(args.get_int("crew-cap"));
  planner_options.threads = threads;

  std::vector<fleet::MarketUpgradeRequest> requests;
  requests.reserve(specs.size());
  for (const fleet::MarketSpec& spec : specs) {
    requests.push_back({spec.id, sites});
  }

  // ---- Pass A: unconstrained ----
  fleet::MarketStore store_a{specs, store_options};
  fleet::WavePlanner planner_a{&store_a, planner_options};
  const auto build_start = Clock::now();
  for (const fleet::MarketSpec& spec : specs) (void)store_a.acquire(spec.id);
  const double build_seconds =
      std::chrono::duration<double>(Clock::now() - build_start).count();
  const auto a_start = Clock::now();
  const fleet::FleetWavePlan plan_a = planner_a.plan(requests);
  const double a_seconds =
      std::chrono::duration<double>(Clock::now() - a_start).count();
  const std::size_t peak_bytes = store_a.peak_resident_bytes();

  // Re-planning round while everything is resident: all hits.
  std::vector<std::uint64_t> replan_a;
  for (std::size_t i = 0; i < replan_count; ++i) {
    const fleet::FleetWavePlan one =
        planner_a.plan(std::span{&requests[i], 1});
    replan_a.push_back(one.markets.front().fingerprint);
  }

  // ---- Pass B: budget-capped (databases already on disk from pass A) ----
  const std::size_t budget_mb =
      static_cast<std::size_t>(args.get_int("budget-mb"));
  fleet::StoreOptions capped = store_options;
  capped.byte_budget =
      budget_mb > 0 ? budget_mb * (1u << 20) : std::max<std::size_t>(
                                                   peak_bytes / 4, 1);
  fleet::MarketStore store_b{specs, capped};
  fleet::WavePlanner planner_b{&store_b, planner_options};
  const auto b_start = Clock::now();
  const fleet::FleetWavePlan plan_b = planner_b.plan(requests);
  const double b_seconds =
      std::chrono::duration<double>(Clock::now() - b_start).count();

  // Eviction/reload round: the first markets were evicted long ago, so
  // these acquires rematerialize from disk.
  std::vector<std::uint64_t> replan_b;
  for (std::size_t i = 0; i < replan_count; ++i) {
    const fleet::FleetWavePlan one =
        planner_b.plan(std::span{&requests[i], 1});
    replan_b.push_back(one.markets.front().fingerprint);
  }

  // Fault-free execution of the capped plan: carried plans only.
  obs::Counter& replans =
      obs::MetricsRegistry::global().counter("exec.campaign.plans_replanned");
  const std::uint64_t replans_before = replans.value();
  const auto x_start = Clock::now();
  const fleet::FleetExecutionResult executed = planner_b.execute(plan_b);
  const double x_seconds =
      std::chrono::duration<double>(Clock::now() - x_start).count();
  const std::uint64_t plans_replanned = replans.value() - replans_before;

  bool plans_identical = plan_a.fleet_fingerprint() == plan_b.fleet_fingerprint();
  for (std::size_t i = 0; i < replan_count; ++i) {
    plans_identical = plans_identical && replan_a[i] == replan_b[i] &&
                      replan_a[i] == plan_a.markets[i].fingerprint;
  }

  // ---- Pass C: standalone single-market cross-check ----
  bool plans_match_single = true;
  fleet::FleetWavePlan stripped;  // the sample markets, plans dropped
  std::vector<traffic::MarketWaveInput> chains;
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::size_t pick = i * (markets / std::max<std::size_t>(
                                                 sample_count, 1));
    const std::uint64_t solo = standalone_fingerprint(
        specs[pick].params, sites, planner_options);
    plans_match_single =
        plans_match_single && solo == plan_a.markets[pick].fingerprint;
    fleet::MarketPlan market = plan_b.markets[pick];
    market.plans.clear();
    chains.push_back({market.market, market.schedule.window_count()});
    stripped.markets.push_back(std::move(market));
  }
  stripped.wave = traffic::compose_wave(chains, planner_options.crew_cap);
  const fleet::FleetExecutionResult replanned = planner_b.execute(stripped);
  bool execute_matches_replanned = !replanned.markets.empty();
  for (const fleet::MarketExecution& market : replanned.markets) {
    const auto carried = std::find_if(
        executed.markets.begin(), executed.markets.end(),
        [&](const fleet::MarketExecution& m) {
          return m.market == market.market;
        });
    execute_matches_replanned =
        execute_matches_replanned && carried != executed.markets.end() &&
        carried->result.to_json().dump() == market.result.to_json().dump();
  }

  util::TablePrinter table{{"pass", "seconds", "markets/s", "hits", "misses",
                            "evictions", "resident_mb"}};
  const auto row = [&](const char* name, double seconds,
                       const fleet::MarketStore& store) {
    table.add_row({name, util::TablePrinter::num(seconds, 2),
                   util::TablePrinter::num(markets / seconds, 2),
                   std::to_string(store.hits()),
                   std::to_string(store.misses()),
                   std::to_string(store.evictions()),
                   util::TablePrinter::num(
                       static_cast<double>(store.resident_bytes()) /
                           (1 << 20),
                       1)});
  };
  row("A:unbounded", a_seconds, store_a);
  row("B:capped", b_seconds, store_b);
  table.print(std::cout);
  std::cout << "fleet: " << markets << " markets, " << sectors_total
            << " sectors, " << plan_a.upgrades_total() << " upgrades, wave "
            << plan_a.wave.makespan() << " windows @ crew cap "
            << planner_options.crew_cap << '\n'
            << "database warm-up (pass A acquires): "
            << util::TablePrinter::num(build_seconds, 2) << " s\n"
            << "peak resident: " << peak_bytes / (1 << 20) << " MiB, budget: "
            << capped.byte_budget / (1 << 20) << " MiB\n"
            << "plans identical under eviction: "
            << (plans_identical ? "yes" : "NO") << '\n'
            << "plans match single-market path: "
            << (plans_match_single ? "yes" : "NO") << '\n'
            << "capped execute: " << util::TablePrinter::num(x_seconds, 2)
            << " s, " << executed.upgrades_completed << " upgrades completed, "
            << plans_replanned << " re-planned\n"
            << "carried plans execute like re-planned ones: "
            << (execute_matches_replanned ? "yes" : "NO") << '\n';

  if (const std::string json_path = args.get_string("json");
      !json_path.empty()) {
    util::JsonObject out;
    out.set("meta", obs::run_metadata_json());
    out.set("bench", "fleet_campaign");
    out.set("markets", static_cast<std::int64_t>(markets));
    out.set("sectors_total", static_cast<std::int64_t>(sectors_total));
    out.set("sites_per_market", static_cast<std::int64_t>(sites));
    out.set("upgrades_planned",
            static_cast<std::int64_t>(plan_a.upgrades_total()));
    out.set("wave_windows", static_cast<std::int64_t>(plan_a.wave.makespan()));
    out.set("crew_cap", static_cast<std::int64_t>(planner_options.crew_cap));
    out.set("threads", static_cast<std::int64_t>(
                           util::resolve_thread_count(threads)));
    out.set("db_build_seconds", build_seconds);
    out.set("plan_seconds_unbounded", a_seconds);
    out.set("plan_seconds_capped", b_seconds);
    out.set("markets_per_second", markets / a_seconds);
    out.set("peak_resident_bytes", static_cast<std::int64_t>(peak_bytes));
    out.set("byte_budget", static_cast<std::int64_t>(capped.byte_budget));
    util::JsonObject store_stats;
    store_stats.set("hits", static_cast<std::int64_t>(store_b.hits()));
    store_stats.set("misses", static_cast<std::int64_t>(store_b.misses()));
    store_stats.set("evictions",
                    static_cast<std::int64_t>(store_b.evictions()));
    store_stats.set("resident_bytes",
                    static_cast<std::int64_t>(store_b.resident_bytes()));
    out.set("store_capped", std::move(store_stats));
    out.set("fleet_fingerprint",
            static_cast<std::int64_t>(plan_a.fleet_fingerprint()));
    out.set("plans_identical_under_eviction", plans_identical);
    out.set("plans_match_single_market", plans_match_single);
    out.set("execute_seconds_capped", x_seconds);
    out.set("plans_replanned", static_cast<std::int64_t>(plans_replanned));
    out.set("execute_matches_replanned", execute_matches_replanned);
    out.write_file(json_path);
  }
  return (plans_identical && plans_match_single && plans_replanned == 0 &&
          execute_matches_replanned)
             ? 0
             : 1;
}
