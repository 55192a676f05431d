// WavePlanner: fleet-scale campaign planning and execution over a
// MarketStore.
//
// plan() walks the requested markets one at a time — acquiring each
// through the store (so the byte budget, not the fleet size, bounds
// resident memory) — runs the single-market Magus pipeline per upgrade
// site, drops upgrades whose predicted recovery falls below the market's
// floor, colors each market's upgrades into conflict-free local windows
// (traffic::schedule_campaign), and composes every market's window chain
// into one fleet wave under the global crew-concurrency cap
// (traffic::compose_wave).
//
// Parallelism is *inside* a market, never across markets: all per-market
// planners score their candidate batches on the planner's one shared
// util::ThreadPool (PlannerOptions::shared_pool), so fleet planning uses
// the same worker set a single market would, and per-market results are
// bit-identical to a standalone core::MagusPlanner run on that market —
// which is what the fleet bench asserts.
//
// execute() replays the wave market by market through exec::FleetRunner:
// one crash-safe CampaignRunner per market with its own derived seed and
// its own write-ahead journal file. Each market runs the plans plan()
// made (MarketPlan::plans) — re-planning only where a quarantine shrinks
// an upgrade's tuning set — after checking that those plans still hash to
// the market's fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/planner.h"
#include "exec/fleet_runner.h"
#include "fleet/market_store.h"
#include "traffic/wave.h"

namespace magus::fleet {

struct WavePlannerOptions {
  core::PlannerOptions planner;  ///< shared_pool is overwritten internally
  core::Utility utility = core::Utility::performance();
  /// Markets the carrier can staff per shared maintenance window.
  std::size_t crew_cap = 4;
  /// Fleet-wide minimum predicted recovery ratio; upgrades below it are
  /// deferred (reported, not scheduled). Per-market requests can override.
  /// Default -inf schedules everything: the recovery *ratio* is negative
  /// whenever an upgrade raises utility (over-interfering site off-air
  /// flips Formula 7's denominator), so a floor is an opt-in policy.
  double recovery_floor = -std::numeric_limits<double>::infinity();
  /// Bound on any single market's window count (0 = unbounded); passed to
  /// traffic::schedule_campaign, which throws when infeasible.
  std::size_t max_windows_per_market = 0;
  /// Workers in the shared evaluation pool (0 = hardware concurrency).
  std::size_t threads = 0;
};

struct MarketUpgradeRequest {
  MarketId market = 0;
  /// Sites to upgrade in this market (lowest site ids first); each site's
  /// sectors form one planned upgrade.
  std::size_t max_sites = 4;
  /// Per-market recovery floor; NaN (the default) = use the fleet-wide
  /// floor. Any finite or infinite value — including negative ones —
  /// overrides it.
  double recovery_floor = std::numeric_limits<double>::quiet_NaN();
};

struct MarketPlan {
  MarketId market = 0;
  std::vector<traffic::PlannedUpgrade> upgrades;  ///< scheduled only
  std::vector<double> recoveries;                 ///< parallel to upgrades
  /// The full mitigation plans, parallel to upgrades; execute() runs
  /// them. Empty = execute() plans each upgrade again when it runs.
  std::vector<core::MitigationPlan> plans;
  traffic::CampaignSchedule schedule;
  /// Upgrades dropped for missing the recovery floor, as (site id,
  /// predicted recovery) pairs.
  std::vector<std::pair<std::int32_t, double>> deferred;
  double min_recovery = 1.0;  ///< over scheduled upgrades (1 when none)
  /// FNV-1a over every scheduled upgrade's C_after settings and recovery —
  /// the cheap identity witness the fleet bench compares across byte
  /// budgets and against standalone single-market planning.
  std::uint64_t fingerprint = 0;
  bool db_rebuilt = false;  ///< this plan's acquire rebuilt the database
};

struct FleetWavePlan {
  std::vector<MarketPlan> markets;  ///< request order
  traffic::WavePlan wave;

  [[nodiscard]] std::size_t upgrades_total() const;
  /// FNV-1a chain over every market's fingerprint, in market-id order —
  /// one number that must survive eviction/reload of any market.
  [[nodiscard]] std::uint64_t fleet_fingerprint() const;
};

struct FleetExecutionOptions {
  exec::CampaignOptions campaign;  ///< seed acts as the fleet seed
  /// Directory for per-market journals (market_<id>.journal); empty =
  /// unjournaled.
  std::string journal_dir;
  bool resume = false;  ///< replay each market's journal before running
  /// Optional per-market fault-injector factory (returns the per-upgrade
  /// factory exec::CampaignEnv expects); empty = fault-free execution.
  std::function<
      std::function<std::unique_ptr<exec::FaultInjector>(std::size_t)>(
          MarketId)>
      injectors;
};

struct MarketExecution {
  MarketId market = 0;
  exec::CampaignResult result;
};

struct FleetExecutionResult {
  std::vector<MarketExecution> markets;  ///< wave order
  std::size_t upgrades_completed = 0;
  std::size_t upgrades_rolled_back = 0;
  std::size_t upgrades_skipped = 0;
  int quarantine_events = 0;
  bool completed = false;
};

/// The per-upgrade target sets plan() uses for a market: one upgrade per
/// site, lowest `max_sites` site ids, each upgrade = that site's sectors.
/// Exposed so tests and benches can reproduce a market's plan standalone.
[[nodiscard]] std::vector<std::vector<net::SectorId>> upgrade_targets_for(
    const net::Network& network, std::size_t max_sites);

/// Fingerprint of one planned upgrade's outcome, chainable across a
/// market's upgrades (same scheme as MarketPlan::fingerprint).
[[nodiscard]] std::uint64_t plan_fingerprint(
    const net::Configuration& c_after, double recovery,
    std::uint64_t hash = 0xCBF29CE484222325ULL);

class WavePlanner {
 public:
  /// `store` must outlive the planner.
  WavePlanner(MarketStore* store, WavePlannerOptions options);

  /// Plans every requested market and composes the fleet wave. Markets are
  /// planned in request order; each one is acquired, planned, and released
  /// before the next (the store's LRU decides what stays resident).
  [[nodiscard]] FleetWavePlan plan(
      std::span<const MarketUpgradeRequest> requests);

  /// Executes a planned wave market by market (wave first-appearance
  /// order), re-acquiring each market through the store — possibly
  /// rematerializing it if evicted since planning, which is safe because
  /// rematerialization is bit-identical. Before any market runs, every
  /// market's carried plans must be parallel to its upgrades and re-hash
  /// (plan_fingerprint) to its fingerprint; otherwise throws
  /// std::invalid_argument naming the market, with nothing journaled.
  [[nodiscard]] FleetExecutionResult execute(
      const FleetWavePlan& plan, const FleetExecutionOptions& options = {});

  [[nodiscard]] MarketStore& store() { return *store_; }
  [[nodiscard]] const WavePlannerOptions& options() const { return options_; }
  [[nodiscard]] util::ThreadPool& pool() { return *pool_; }

 private:
  /// Plans one market (acquired handle) — the body of plan()'s loop.
  [[nodiscard]] MarketPlan plan_market(const MarketUpgradeRequest& request);

  MarketStore* store_;
  WavePlannerOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace magus::fleet
