// Crash-safe campaign execution: many planned upgrades, scheduled into
// conflict-free maintenance windows (traffic::schedule_campaign), played
// window by window through the fault-aware MigrationExecutor.
//
// The runner owns the campaign-level durability protocol on top of the
// executor's per-step write-ahead records:
//
//   kCampaignStart  seed + shape (validated on resume; a resume appends a
//                   marker copy so restart counts survive restarts)
//   kUpgradeStart   upgrade index, window, derived per-upgrade seed
//     ... executor step records (intent / fault / recovery / confirm) ...
//   kUpgradeEnd     outcome + window summary + final configuration
//   kQuarantine     a sector's circuit breaker tripped
//   kWindowEnd      every upgrade of the window reached an outcome
//   kCampaignEnd
//
// run() with CampaignEnv::recovered (the journal's replayed records)
// resumes idempotently: completed upgrades are rebuilt from their
// kStepConfirm + kUpgradeEnd records — never re-planned, never re-pushed —
// the in-flight upgrade continues from its last confirmed step via the
// executor's WindowResumeState, and everything after runs normally.
//
// Each upgrade runs the plan carried in CampaignEnv::plans when one was
// made and its window has nothing quarantined; otherwise (a quarantine
// shrank the tuning set, or nothing was carried) it is planned when it
// runs. Either way the model's UE density is set from the plan just
// before execution, so the plan alone defines the executor's inputs. The
// quarantine breaker is re-derived from the replayed fault events in the
// original window order, so the resumed campaign sees the exact sector
// fencing the uninterrupted one would.
//
// Degradation policies applied per window:
//   - sectors quarantined by the breaker are excluded from the planner's
//     involved set, pinned against pushes, and veto contingency entries;
//   - an upgrade whose *targets* are quarantined is skipped this campaign
//     (kSkippedQuarantined) rather than executed against dead equipment;
//   - each window carries a simulated time budget (window_time_budget_s of
//     its duration) enforced by the executor's deadline watchdog.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/contingency.h"
#include "core/evaluator.h"
#include "core/planner.h"
#include "exec/executor.h"
#include "exec/fault_injector.h"
#include "exec/journal.h"
#include "exec/quarantine.h"
#include "traffic/campaign.h"
#include "util/json.h"

namespace magus::exec {

enum class UpgradeOutcome {
  kCompleted,
  kRolledBack,
  kSkippedQuarantined,  ///< a target sector was fenced off this window
};

[[nodiscard]] const char* upgrade_outcome_name(UpgradeOutcome outcome);

struct UpgradeResult {
  std::size_t upgrade = 0;  ///< index into the input upgrade list
  std::size_t window = 0;
  UpgradeOutcome outcome = UpgradeOutcome::kCompleted;
  /// True when this run continued the upgrade from a journal checkpoint
  /// (bookkeeping only; replayed-complete upgrades are not "resumed").
  bool resumed = false;
  ExecutionTrace trace;  ///< default-constructed for kSkippedQuarantined
};

struct CampaignResult {
  std::vector<UpgradeResult> upgrades;  ///< window order, schedule order
  std::size_t windows_total = 0;
  std::size_t windows_completed = 0;
  int resumes = 0;  ///< journal-continue restarts, including prior runs
  int quarantine_events = 0;
  int deadline_skips = 0;
  std::vector<net::SectorId> quarantined_sectors;  ///< ever fenced, sorted
  bool completed = false;

  /// Campaign-level summary + one entry per upgrade (outcome and full
  /// execution trace) — what bench_fault_recovery --json emits.
  [[nodiscard]] util::JsonObject to_json() const;
};

struct CampaignOptions {
  ExecutorOptions executor;
  QuarantineOptions quarantine;
  std::uint64_t seed = 1;  ///< campaign seed; per-upgrade seeds derive
  /// Fraction of a window's wall-clock usable for configuration work —
  /// the argument to traffic::window_time_budget_s.
  double window_utilization = 0.25;
  bool enforce_deadline = true;  ///< false disables the watchdog entirely
};

/// Per-campaign dependencies; all optional. For a resumed run, `recovered`
/// holds Journal::replay(path).records (kept alive by the caller) and
/// `journal` is the same file reopened with Mode::kContinue.
struct CampaignEnv {
  /// Plans made before the campaign (MagusPlanner::plan_upgrade with no
  /// exclusions), parallel to the upgrade list. When set, an upgrade whose
  /// window has nothing quarantined runs its carried plan instead of
  /// re-planning; empty = every upgrade is planned when it runs.
  std::span<const core::MitigationPlan> plans;
  const core::ContingencyTable* contingencies = nullptr;
  /// Builds the fault injector for one upgrade index. Must be
  /// deterministic per index (a fresh injector from a derived seed) so a
  /// resumed campaign replays the same faults.
  std::function<std::unique_ptr<FaultInjector>(std::size_t)> injector_factory;
  Journal* journal = nullptr;
  std::span<const JournalRecord> recovered;
};

/// Deterministic per-upgrade seed (splitmix64 of the campaign seed and
/// upgrade index) — stored in kUpgradeStart and validated on resume.
[[nodiscard]] std::uint64_t upgrade_seed(std::uint64_t campaign_seed,
                                         std::size_t upgrade_index);

class CampaignRunner {
 public:
  /// `evaluator` and `planner` must outlive the runner; the planner doubles
  /// as the executor's emergency re-planner.
  CampaignRunner(core::Evaluator* evaluator, const core::MagusPlanner* planner,
                 CampaignOptions options = {});

  /// Executes (or resumes) the campaign. Throws std::invalid_argument,
  /// before anything is journaled, when `env.plans` is set but not
  /// parallel to `upgrades` or a carried plan's UE density does not fit
  /// the model; std::runtime_error when the recovered journal does not
  /// match this campaign (different seed, upgrade count, or per-upgrade
  /// seed); propagates JournalCrash from an armed crash point.
  [[nodiscard]] CampaignResult run(
      std::span<const traffic::PlannedUpgrade> upgrades,
      const traffic::CampaignSchedule& schedule,
      const CampaignEnv& env = {}) const;

  [[nodiscard]] const CampaignOptions& options() const { return options_; }

 private:
  core::Evaluator* evaluator_;
  const core::MagusPlanner* planner_;
  CampaignOptions options_;
};

}  // namespace magus::exec
