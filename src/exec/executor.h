// Fault-aware migration executor.
//
// The planner's GradualPlan is a schedule, not a guarantee: the seed code
// simply replayed it through the signaling simulator and assumed every
// step landed. MigrationExecutor instead *plays* the plan step-by-step
// against the live AnalysisModel while a pluggable FaultInjector knocks
// sectors off-air, storms the handover plane, or rejects configuration
// pushes. After every step the realized utility is compared against the
// plan's expectation; on divergence past the configured tolerance the
// executor escalates through a graceful-degradation ladder:
//
//   1. retry       — re-push the intended configuration under the capped
//                    exponential backoff (absorbs transient OSS rejects).
//   2. contingency — on an unplanned outage, push the matching (or
//                    nearest-match) precomputed ContingencyTable entry:
//                    the paper's §8 reactive model-based response with
//                    zero computation delay. A success supersedes the now
//                    stale ramp; the executor completes the upgrade with
//                    one final push of the stored configuration with the
//                    migration targets (and all failed sectors) off-air.
//   3. re-plan     — MagusPlanner::replan_from_current: a bounded local
//                    search from the *faulted* state that completes the
//                    migration in one emergency push.
//   4. rollback    — restore the last configuration that was within
//                    tolerance (C_before if none) and abort the window.
//
// Two cross-cutting policies gate the ladder:
//
//   deadline watchdog — each window carries a simulated time budget
//   (ExecutionEnv::time_budget_s, from traffic::window_time_budget_s);
//   before entering a rung the executor checks the rung's worst-case cost
//   (backoff total wait, contingency push, replan bound) against the
//   remaining budget and skips rungs that no longer fit, recording
//   kDeadlineSkip. Rollback is the safety rung and always runs.
//
//   quarantine — sectors fenced off by the campaign's circuit breaker
//   (ExecutionEnv::quarantined) are pinned: every push holds their live
//   settings, contingency entries referencing them are vetoed, and
//   re-planning excludes them from the tuned set.
//
// When an exec::Journal is attached, every externally visible action is
// written ahead: a kStepIntent before each push, kFault / kRecovery /
// kDeadlineSkip as they happen, and a kStepConfirm carrying the complete
// post-step state (step record, live + last-safe configurations, RNG
// state, cumulative counters, next step index). recover_window_state()
// rebuilds a WindowResumeState from a replayed journal; execute() with
// ExecutionEnv::resume continues idempotently from the first unconfirmed
// step — a confirmed configuration is never pushed again, and the final
// trace is bit-identical to an uninterrupted run.
//
// Everything is recorded in a structured ExecutionTrace (per-step outcome,
// fault events, recovery actions, utility-floor violations, signaling and
// lost-service accounting) which bench_fault_recovery consumes to extend
// the paper's Table 1 story to faults *during* the migration window.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/contingency.h"
#include "core/evaluator.h"
#include "core/gradual.h"
#include "core/planner.h"
#include "exec/fault_injector.h"
#include "exec/journal.h"
#include "sim/handover_fsm.h"
#include "util/backoff.h"
#include "util/json.h"

namespace magus::exec {

enum class RecoveryAction {
  kRetry,
  kContingency,
  kReplan,
  kRollback,
  kDeadlineSkip,  ///< a rung the deadline watchdog refused to enter
};

[[nodiscard]] const char* recovery_action_name(RecoveryAction action);

enum class StepStatus {
  kApplied,     ///< landed within tolerance, no recovery needed
  kRecovered,   ///< diverged, but a ladder rung restored the utility
  kReplanned,   ///< completed early via an emergency re-plan
  kRolledBack,  ///< unrecoverable; the window was aborted
};

[[nodiscard]] const char* step_status_name(StepStatus status);

struct StepRecord {
  int step = -1;  ///< index into GradualPlan::steps (1 = first transition)
  StepStatus status = StepStatus::kApplied;
  std::vector<FaultEvent> faults;            ///< faults that struck this step
  std::vector<RecoveryAction> actions;       ///< ladder rungs taken, in order
  double planned_utility = 0.0;              ///< what the plan promised
  double realized_utility = 0.0;             ///< measured after the push
  double utility_after_recovery = 0.0;       ///< measured after the ladder
  bool floor_violated = false;  ///< ended below floor - tolerance band
  int push_attempts = 1;        ///< OSS pushes spent (retries via backoff)
  double backoff_wait_s = 0.0;  ///< wall-clock spent waiting between pushes
  double seamless_ues = 0.0;
  double hard_ues = 0.0;
  double lost_service_ues = 0.0;  ///< UEs with no server after this step
  double handover_failures = 0.0;
  double handover_retries = 0.0;
  double lost_service_ue_seconds = 0.0;
};

struct ExecutionTrace {
  std::vector<StepRecord> steps;
  std::vector<FaultEvent> fault_events;  ///< all faults, flattened
  std::vector<net::SectorId> failed_sectors;  ///< unplanned outages (sorted)
  std::vector<net::SectorId> quarantined_sectors;  ///< pinned this window
  sim::SignalingCounters signaling;
  int retries = 0;
  int contingency_applies = 0;
  int replans = 0;
  int rollbacks = 0;
  int floor_violations = 0;
  int deadline_skips = 0;  ///< ladder rungs skipped by the watchdog
  bool completed = false;    ///< the targets ended off-air as intended
  bool rolled_back = false;  ///< the window was aborted
  double floor_utility = 0.0;  ///< the plan's guaranteed floor f(C_after)
  double final_utility = 0.0;
  double total_lost_service_ue_seconds = 0.0;
  double makespan_s = 0.0;
  /// Steps replayed from a journal rather than executed (resume
  /// bookkeeping; deliberately *not* exported by to_json so a resumed
  /// window serializes identically to an uninterrupted one).
  int resumed_steps = 0;

  [[nodiscard]] int recovery_action_count() const {
    return retries + contingency_applies + replans + rollbacks;
  }

  /// Full structured export: window outcome + counters, the flattened
  /// fault list, and one record per step (status, faults, ladder actions,
  /// utilities, signaling). The machine-readable form of the recovery
  /// story — bench_fault_recovery emits it and exec_test asserts on it.
  [[nodiscard]] util::JsonObject to_json() const;
};

struct ExecutorOptions {
  /// Relative divergence band: a step diverges when the realized utility
  /// falls more than tolerance * |expectation| below the expectation (the
  /// per-step planned utility, or the rebased floor after a structural
  /// fault). The same band bounds acceptable utility-floor violations.
  double utility_tolerance = 0.05;
  double step_interval_s = 60.0;  ///< wall-clock between plan steps
  util::BackoffPolicy push_backoff;  ///< OSS configuration-push retries
  sim::HandoverTimings handover;     ///< includes FSM failure/retry policy
  bool allow_retry = true;
  bool allow_contingency = true;
  bool allow_replan = true;
  /// Simulated cost the deadline watchdog charges a contingency push and a
  /// bounded re-plan (the replan bound covers the emergency local search).
  double contingency_cost_s = 1.0;
  double replan_cost_s = 30.0;
};

/// Checkpoint decoded from a journal's kStepConfirm records: everything
/// execute() needs to continue a window as if it never stopped.
struct WindowResumeState {
  bool has_progress = false;  ///< at least one step was confirmed
  std::size_t next_k = 1;     ///< first unconfirmed plan step
  std::vector<StepRecord> steps;
  std::vector<FaultEvent> fault_events;
  std::vector<net::SectorId> failed;
  net::Configuration live_config;
  net::Configuration last_safe;
  std::array<std::uint64_t, 4> rng_state{};
  double clock_s = 0.0;
  double effective_floor = 0.0;
  bool finish_mode = false;
  bool aborted = false;
  bool replanned = false;
  sim::SignalingCounters signaling;
  int retries = 0;
  int contingency_applies = 0;
  int replans = 0;
  int rollbacks = 0;
  int floor_violations = 0;
  int deadline_skips = 0;
};

/// Rebuilds the checkpoint from a replayed record span (one window's
/// records, in order). Only kStepConfirm records carry state; the
/// intent/fault/recovery records of an unconfirmed step are ignored — that
/// step re-executes deterministically from the previous confirm. Records
/// of other types (campaign layer) are skipped. Throws std::runtime_error
/// only on a record that replay() validated but this version cannot decode
/// (an encoder/decoder mismatch, not a torn file).
[[nodiscard]] WindowResumeState recover_window_state(
    std::span<const JournalRecord> records);

/// Execution-time dependencies of one window. Everything is optional: a
/// null injector runs fault-free, null contingencies/replanner disarm
/// ladder rungs 2 and 3 (as do the allow_* options), a null journal runs
/// without write-ahead logging, time_budget_s <= 0 disables the deadline
/// watchdog, an empty quarantined span pins nothing, and a null resume
/// starts the window from the plan's first step.
struct ExecutionEnv {
  FaultInjector* injector = nullptr;
  const core::ContingencyTable* contingencies = nullptr;
  const core::MagusPlanner* replanner = nullptr;
  Journal* journal = nullptr;
  double time_budget_s = 0.0;  ///< simulated budget; <= 0 means unlimited
  std::span<const net::SectorId> quarantined;  ///< sorted; pinned sectors
  const WindowResumeState* resume = nullptr;
};

class MigrationExecutor {
 public:
  /// `evaluator` must outlive the executor; its model is the live network
  /// the plan is executed against.
  explicit MigrationExecutor(core::Evaluator* evaluator,
                             ExecutorOptions options = {});

  /// Plays `plan` (targets ramping down toward off-air) on the live
  /// model. The model is reset to the plan's first-step configuration on
  /// entry (or the resume checkpoint's live configuration). The model's UE
  /// density must be the one the plan was made under, the owning
  /// MitigationPlan's ue_density: CampaignRunner sets it from the plan
  /// before every upgrade, and a plan_upgrade just before the call leaves
  /// it so. `seed` drives all
  /// stochastic fault outcomes (handover failures) deterministically and
  /// must match the original run when resuming. Propagates JournalCrash
  /// from an armed crash point — the model is then mid-flight and must be
  /// reconstructed via resume.
  [[nodiscard]] ExecutionTrace execute(const core::GradualPlan& plan,
                                       std::span<const net::SectorId> targets,
                                       std::uint64_t seed,
                                       const ExecutionEnv& env) const;

  /// Legacy convenience overload (no journal, watchdog, or quarantine).
  [[nodiscard]] ExecutionTrace execute(
      const core::GradualPlan& plan, std::span<const net::SectorId> targets,
      std::uint64_t seed, FaultInjector* injector = nullptr,
      const core::ContingencyTable* contingencies = nullptr,
      const core::MagusPlanner* replanner = nullptr) const;

  [[nodiscard]] const ExecutorOptions& options() const { return options_; }

 private:
  core::Evaluator* evaluator_;
  ExecutorOptions options_;
};

}  // namespace magus::exec
