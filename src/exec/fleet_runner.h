// Fleet execution: one crash-safe CampaignRunner per market, sharing a
// base CampaignOptions but deriving an independent campaign seed and an
// independent write-ahead journal per market.
//
// The runner deliberately knows nothing about the fleet layer's market
// store or wave composition — it takes plain references to one market's
// already-materialized planning state (MarketCampaignRefs), so it sits
// below `fleet` in the module order, and so any caller that can produce
// an evaluator + planner + schedule can execute crash-safely. Journals
// are per market: a crash while market 17 is mid-window only replays
// market 17's journal; every other market's file is untouched.
#pragma once

#include <cstdint>
#include <string>

#include "exec/campaign_runner.h"

namespace magus::exec {

/// Everything needed to execute one market's campaign. All pointers are
/// borrowed and must outlive the run_market call.
struct MarketCampaignRefs {
  /// Caller-chosen market key (the fleet layer passes its MarketId); folded
  /// into the per-market campaign seed and useful for log attribution.
  std::int32_t market_key = 0;
  std::span<const traffic::PlannedUpgrade> upgrades;
  /// Plans made for `upgrades` before execution (CampaignEnv::plans);
  /// empty = each upgrade is planned when it runs.
  std::span<const core::MitigationPlan> plans;
  const traffic::CampaignSchedule* schedule = nullptr;
  core::Evaluator* evaluator = nullptr;
  const core::MagusPlanner* planner = nullptr;
  const core::ContingencyTable* contingencies = nullptr;
  /// Deterministic per-upgrade fault injector factory (may be empty).
  std::function<std::unique_ptr<FaultInjector>(std::size_t)> injector_factory;
  /// Path for this market's write-ahead journal; empty = run unjournaled.
  std::string journal_path;
};

/// Deterministic per-market campaign seed (splitmix64 over the fleet seed
/// and market key) — every market replays the same faults and schedules
/// regardless of fleet composition or execution order.
[[nodiscard]] std::uint64_t market_campaign_seed(std::uint64_t fleet_seed,
                                                 std::int32_t market_key);

class FleetRunner {
 public:
  /// `base.seed` acts as the fleet seed; each market's CampaignRunner gets
  /// market_campaign_seed(base.seed, market_key) instead.
  explicit FleetRunner(CampaignOptions base = {}) : base_(base) {}

  /// Executes (or, with resume=true, resumes from the market's journal)
  /// one market's campaign. With resume, the journal's longest valid
  /// prefix is replayed and the file reopened in kContinue mode; without,
  /// any existing journal is truncated. Propagates JournalCrash from an
  /// armed crash point, like CampaignRunner::run.
  [[nodiscard]] CampaignResult run_market(const MarketCampaignRefs& refs,
                                          bool resume = false) const;

  [[nodiscard]] const CampaignOptions& base_options() const { return base_; }

 private:
  CampaignOptions base_;
};

}  // namespace magus::exec
