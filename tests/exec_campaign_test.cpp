// Crash-safe campaign execution: the crash-injection oracle (kill the
// executor at every journal record boundary, resume, and demand the final
// configuration and trace match an uninterrupted run), the deadline
// watchdog, sector quarantine, and the campaign runner's durability
// protocol. Everything is deterministic — scripted or seeded faults only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/contingency.h"
#include "core/planner.h"
#include "exec/campaign_runner.h"
#include "exec/executor.h"
#include "exec/fault_injector.h"
#include "exec/journal.h"
#include "exec/quarantine.h"
#include "test_helpers.h"
#include "traffic/campaign.h"
#include "traffic/window_planner.h"

namespace magus::exec {
namespace {

using magus::testing::LineWorld;

[[nodiscard]] bool has_action(const ExecutionTrace& trace,
                              RecoveryAction action) {
  return std::any_of(trace.steps.begin(), trace.steps.end(),
                     [&](const StepRecord& rec) {
                       return std::find(rec.actions.begin(), rec.actions.end(),
                                        action) != rec.actions.end();
                     });
}

[[nodiscard]] std::size_t count_records(
    std::span<const JournalRecord> records, JournalRecordType type) {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [&](const JournalRecord& r) { return r.type == type; }));
}

/// Same in-fill world as ExecTest: LineWorld plus a steep center sector
/// whose loss mid-migration is a genuine neighbor outage.
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : world_(12, 7.0) {
    net::Sector mid = world_.network.sector(world_.west);
    mid.site = 2;
    mid.position = {600.0, 50.0};
    mid_ = world_.network.add_sector(mid);
    for (const int tilt : {-1, 0, 1}) {
      std::vector<float> dense(12);
      for (int c = 0; c < 12; ++c) {
        const double distance = std::abs((c + 0.5) - 6.0);
        double gain = -55.0 - 20.0 * distance;
        if (tilt == -1) gain += distance > 1.0 ? 3.0 : -3.0;
        if (tilt == 1) gain += distance > 1.0 ? -3.0 : 3.0;
        dense[static_cast<std::size_t>(c)] = static_cast<float>(gain);
      }
      world_.provider->set_footprint(mid_, static_cast<radio::TiltIndex>(tilt),
                                     std::move(dense));
    }
    world_.network.set_subscribers(mid_, 10.0);

    model_ = std::make_unique<model::AnalysisModel>(&world_.network,
                                                    world_.provider.get());
    model_->freeze_uniform_ue_density();
    evaluator_ = std::make_unique<core::Evaluator>(
        model_.get(), core::Utility::performance());
    core::PlannerOptions options;
    options.mode = core::TuningMode::kPower;
    options.neighbor_radius_m = 2'000.0;
    planner_ = std::make_unique<core::MagusPlanner>(evaluator_.get(), options);
  }

  [[nodiscard]] core::MitigationPlan plan_east() const {
    const net::SectorId targets[] = {world_.east};
    return planner_->plan_upgrade(targets);
  }

  [[nodiscard]] static int mid_step(const core::GradualPlan& plan) {
    return std::max(1, static_cast<int>(plan.steps.size() / 2));
  }

  [[nodiscard]] std::string journal_path(const char* name) const {
    return ::testing::TempDir() + "/" + name;
  }

  /// Scripted injector: the middle sector drops at the ramp's midpoint.
  [[nodiscard]] ScriptedFaultInjector outage_injector(
      const core::GradualPlan& plan) const {
    ScriptedFaultInjector injector;
    injector.add(
        FaultEvent{FaultKind::kSectorOutage, mid_step(plan), mid_});
    return injector;
  }

  LineWorld world_;
  net::SectorId mid_ = net::kInvalidSector;
  std::unique_ptr<model::AnalysisModel> model_;
  std::unique_ptr<core::Evaluator> evaluator_;
  std::unique_ptr<core::MagusPlanner> planner_;
};

// ---- Tentpole oracle: executor-level crash injection ---------------------

// Kill the executor at every journal record boundary, resume from the
// replayed journal, and demand: identical trace JSON, identical final
// configuration, and exactly one kStepConfirm per step (no confirmed
// configuration is ever pushed twice).
TEST_F(RecoveryTest, CrashAtEveryRecordBoundaryResumesIdentically) {
  const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
  const auto table = core::ContingencyTable::build(*planner_, outages);
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};
  const std::string path = journal_path("magus_crash_oracle.wal");

  // Reference: one uninterrupted, journaled run.
  ExecutionTrace reference;
  std::uint64_t record_count = 0;
  {
    ScriptedFaultInjector injector = outage_injector(plan.gradual);
    Journal journal{path, Journal::Mode::kTruncate};
    ExecutionEnv env;
    env.injector = &injector;
    env.contingencies = &table;
    env.journal = &journal;
    reference = executor.execute(plan.gradual, targets, /*seed=*/11, env);
    record_count = journal.records_written();
  }
  ASSERT_TRUE(reference.completed);
  ASSERT_GE(reference.contingency_applies, 1);
  ASSERT_GT(record_count, 0u);
  const std::string reference_json = reference.to_json().dump();
  const net::Configuration reference_config = model_->configuration();
  {
    const Journal::Replay replay = Journal::replay(path);
    EXPECT_EQ(count_records(replay.records, JournalRecordType::kStepConfirm),
              reference.steps.size());
  }
  // Resume bookkeeping stays out of the serialized trace so a resumed
  // window compares bit-identical to this reference.
  EXPECT_EQ(reference_json.find("resumed"), std::string::npos);

  for (std::uint64_t crash = 0; crash < record_count; ++crash) {
    // Crashed attempt: the journal throws at record boundary `crash`.
    {
      ScriptedFaultInjector injector = outage_injector(plan.gradual);
      Journal journal{path, Journal::Mode::kTruncate};
      journal.set_crash_after(crash);
      ExecutionEnv env;
      env.injector = &injector;
      env.contingencies = &table;
      env.journal = &journal;
      EXPECT_THROW(
          (void)executor.execute(plan.gradual, targets, /*seed=*/11, env),
          JournalCrash)
          << "crash=" << crash;
    }
    // Restart: replay the journal, rebuild the checkpoint, continue.
    Journal journal{path, Journal::Mode::kContinue};
    const Journal::Replay replay = Journal::replay(path);
    ASSERT_EQ(replay.records.size(), crash) << "crash=" << crash;
    const WindowResumeState resume = recover_window_state(replay.records);
    ScriptedFaultInjector injector = outage_injector(plan.gradual);
    ExecutionEnv env;
    env.injector = &injector;
    env.contingencies = &table;
    env.journal = &journal;
    env.resume = &resume;
    const ExecutionTrace resumed =
        executor.execute(plan.gradual, targets, /*seed=*/11, env);

    ASSERT_EQ(resumed.to_json().dump(), reference_json) << "crash=" << crash;
    ASSERT_EQ(model_->configuration(), reference_config) << "crash=" << crash;
    ASSERT_EQ(resumed.steps.size(), reference.steps.size());
    EXPECT_EQ(static_cast<std::size_t>(resumed.resumed_steps),
              resume.steps.size());
    // Idempotence: across crash + resume, each step was confirmed exactly
    // once — a confirmed configuration is never pushed again.
    const Journal::Replay final_replay = Journal::replay(path);
    ASSERT_EQ(
        count_records(final_replay.records, JournalRecordType::kStepConfirm),
        reference.steps.size())
        << "crash=" << crash;
  }
  std::remove(path.c_str());
}

// The same oracle under seeded random faults and an armed re-planner:
// proves the RNG-state checkpoint and the positional fault-injector
// winding keep stochastic runs bit-reproducible across a crash.
TEST_F(RecoveryTest, CrashOracleHoldsUnderSeededRandomFaults) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  RandomFaultOptions fault_options;
  fault_options.storm_probability_per_step = 0.6;
  fault_options.storm_failure_probability = 0.5;
  fault_options.push_reject_probability_per_step = 0.4;
  const auto make_injector = [&] {
    return RandomFaultInjector{/*seed=*/77, fault_options};
  };

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  options.handover.max_attempts = 5;
  const MigrationExecutor executor{evaluator_.get(), options};
  const std::string path = journal_path("magus_crash_random.wal");

  ExecutionTrace reference;
  std::uint64_t record_count = 0;
  {
    RandomFaultInjector injector = make_injector();
    Journal journal{path, Journal::Mode::kTruncate};
    ExecutionEnv env;
    env.injector = &injector;
    env.replanner = planner_.get();
    env.journal = &journal;
    reference = executor.execute(plan.gradual, targets, /*seed=*/29, env);
    record_count = journal.records_written();
  }
  ASSERT_GT(record_count, 0u);
  ASSERT_FALSE(reference.fault_events.empty());
  const std::string reference_json = reference.to_json().dump();
  const net::Configuration reference_config = model_->configuration();

  for (std::uint64_t crash = 0; crash < record_count; ++crash) {
    {
      RandomFaultInjector injector = make_injector();
      Journal journal{path, Journal::Mode::kTruncate};
      journal.set_crash_after(crash);
      ExecutionEnv env;
      env.injector = &injector;
      env.replanner = planner_.get();
      env.journal = &journal;
      EXPECT_THROW(
          (void)executor.execute(plan.gradual, targets, /*seed=*/29, env),
          JournalCrash)
          << "crash=" << crash;
    }
    Journal journal{path, Journal::Mode::kContinue};
    const WindowResumeState resume =
        recover_window_state(Journal::replay(path).records);
    RandomFaultInjector injector = make_injector();
    ExecutionEnv env;
    env.injector = &injector;
    env.replanner = planner_.get();
    env.journal = &journal;
    env.resume = &resume;
    const ExecutionTrace resumed =
        executor.execute(plan.gradual, targets, /*seed=*/29, env);
    ASSERT_EQ(resumed.to_json().dump(), reference_json) << "crash=" << crash;
    ASSERT_EQ(model_->configuration(), reference_config) << "crash=" << crash;
  }
  std::remove(path.c_str());
}

// ---- Deadline watchdog ---------------------------------------------------

// An unaffordable retry rung is skipped (recorded as kDeadlineSkip) and
// the ladder falls through to the still-affordable contingency, which
// completes the window — the "skip to the cheapest rung that fits" path.
TEST_F(RecoveryTest, WatchdogSkipsUnaffordableRetryCompletesViaContingency) {
  const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
  const auto table = core::ContingencyTable::build(*planner_, outages);
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  // Retry's worst case (three waits of 10000 s) cannot fit any sane
  // budget; the contingency push costs 1 s.
  options.push_backoff.initial_delay_s = 10'000.0;
  options.push_backoff.max_delay_s = 10'000.0;
  options.contingency_cost_s = 1.0;
  const MigrationExecutor executor{evaluator_.get(), options};

  ScriptedFaultInjector injector = outage_injector(plan.gradual);
  const std::string path = journal_path("magus_watchdog.wal");
  Journal journal{path, Journal::Mode::kTruncate};
  ExecutionEnv env;
  env.injector = &injector;
  env.contingencies = &table;
  env.journal = &journal;
  env.time_budget_s =
      options.step_interval_s * static_cast<double>(plan.gradual.steps.size()) +
      100.0;
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/11, env);

  EXPECT_TRUE(trace.completed);
  EXPECT_FALSE(trace.rolled_back);
  EXPECT_GE(trace.deadline_skips, 1);
  EXPECT_GE(trace.contingency_applies, 1);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kDeadlineSkip));
  EXPECT_TRUE(has_action(trace, RecoveryAction::kContingency));
  // The skip is journaled and exported.
  const Journal::Replay replay = Journal::replay(path);
  EXPECT_GE(count_records(replay.records, JournalRecordType::kDeadlineSkip),
            1u);
  const std::string json = trace.to_json().dump();
  EXPECT_NE(json.find("\"deadline_skip\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_skips\": " +
                      std::to_string(trace.deadline_skips)),
            std::string::npos);
  std::remove(path.c_str());
}

// With the budget already exhausted by the ramp itself, every recovery
// rung is unaffordable: the watchdog records a skip per armed rung and the
// safety rung (rollback, never gated) aborts the window.
TEST_F(RecoveryTest, WatchdogExhaustionFallsThroughToRollback) {
  const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
  const auto table = core::ContingencyTable::build(*planner_, outages);
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};

  ScriptedFaultInjector injector = outage_injector(plan.gradual);
  ExecutionEnv env;
  env.injector = &injector;
  env.contingencies = &table;
  env.replanner = planner_.get();
  env.time_budget_s = 1.0;  // gone before the first step lands
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/11, env);

  EXPECT_TRUE(trace.rolled_back);
  EXPECT_FALSE(trace.completed);
  EXPECT_GE(trace.deadline_skips, 2);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kDeadlineSkip));
  EXPECT_TRUE(has_action(trace, RecoveryAction::kRollback));
  EXPECT_EQ(trace.contingency_applies, 0);
  EXPECT_EQ(trace.replans, 0);
}

// ---- Quarantine pinning --------------------------------------------------

// Quarantined sectors are pinned: the executor holds their live settings
// through every push and reports them in the trace.
TEST_F(RecoveryTest, QuarantinedSectorIsPinnedThroughTheWindow) {
  const net::SectorId targets[] = {world_.east};
  const net::SectorId fenced[] = {mid_};
  // Plan on the reduced sector set, as the campaign runner would.
  const core::MitigationPlan plan = planner_->plan_upgrade(targets, fenced);
  EXPECT_EQ(std::find(plan.involved.begin(), plan.involved.end(), mid_),
            plan.involved.end());

  const MigrationExecutor executor{evaluator_.get()};
  const net::SectorSetting before =
      plan.gradual.steps.front().config[mid_];
  ExecutionEnv env;
  env.quarantined = fenced;
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/41, env);

  EXPECT_TRUE(trace.completed);
  ASSERT_EQ(trace.quarantined_sectors.size(), 1u);
  EXPECT_EQ(trace.quarantined_sectors[0], mid_);
  EXPECT_EQ(model_->configuration()[mid_], before);
  EXPECT_FALSE(model_->configuration()[world_.east].active);
  const std::string json = trace.to_json().dump();
  EXPECT_NE(json.find("\"quarantined_sectors\""), std::string::npos);
}

// ---- Campaign runner -----------------------------------------------------

/// Two-upgrade campaign on hand-built windows: upgrade 0 (east off-air)
/// suffers the scripted mid-sector outage in window 0; upgrade 1 targets
/// the faulting sector itself in window 1.
struct CampaignScenario {
  std::vector<traffic::PlannedUpgrade> upgrades;
  traffic::CampaignSchedule schedule;
  core::ContingencyTable table;
};

class CampaignTest : public RecoveryTest {
 protected:
  [[nodiscard]] CampaignScenario make_scenario() const {
    CampaignScenario scenario;
    const core::MitigationPlan east_plan = plan_east();
    traffic::PlannedUpgrade east_upgrade;
    east_upgrade.targets = {world_.east};
    east_upgrade.involved = east_plan.involved;
    traffic::PlannedUpgrade mid_upgrade;
    mid_upgrade.targets = {mid_};
    mid_upgrade.involved = {mid_, world_.east, world_.west};
    scenario.upgrades = {east_upgrade, mid_upgrade};
    scenario.schedule.windows = {{0}, {1}};
    const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
    scenario.table = core::ContingencyTable::build(*planner_, outages);
    return scenario;
  }

  /// Deterministic per-upgrade injector factory: the mid-sector outage
  /// strikes upgrade 0; upgrade 1 runs clean.
  [[nodiscard]] CampaignEnv make_env(const CampaignScenario& scenario,
                                     Journal* journal) const {
    CampaignEnv env;
    env.contingencies = &scenario.table;
    env.journal = journal;
    const int fault_step = 2;
    const net::SectorId mid = mid_;
    env.injector_factory =
        [mid, fault_step](std::size_t upgrade) -> std::unique_ptr<FaultInjector> {
      auto injector = std::make_unique<ScriptedFaultInjector>();
      if (upgrade == 0) {
        injector->add(FaultEvent{FaultKind::kSectorOutage, fault_step, mid});
      }
      return injector;
    };
    return env;
  }

  [[nodiscard]] CampaignOptions campaign_options() const {
    CampaignOptions options;
    options.executor.utility_tolerance = 0.01;
    options.quarantine.fault_threshold = 1;
    options.quarantine.cooloff_windows = 2;
    options.seed = 5;
    return options;
  }
};

TEST_F(CampaignTest, BreakerTripsAndQuarantinedTargetIsSkipped) {
  const CampaignScenario scenario = make_scenario();
  const std::string path = journal_path("magus_campaign.wal");
  Journal journal{path, Journal::Mode::kTruncate};
  const CampaignEnv env = make_env(scenario, &journal);
  const CampaignRunner runner{evaluator_.get(), planner_.get(),
                              campaign_options()};
  const CampaignResult result =
      runner.run(scenario.upgrades, scenario.schedule, env);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.windows_total, 2u);
  EXPECT_EQ(result.windows_completed, 2u);
  EXPECT_EQ(result.resumes, 0);
  // The single scripted fault trips the threshold-1 breaker...
  EXPECT_GE(result.quarantine_events, 1);
  ASSERT_EQ(result.quarantined_sectors.size(), 1u);
  EXPECT_EQ(result.quarantined_sectors[0], mid_);
  // ...upgrade 0 still completes via contingency, and upgrade 1 — whose
  // *target* is now fenced off — is skipped rather than executed against
  // dead equipment.
  ASSERT_EQ(result.upgrades.size(), 2u);
  EXPECT_EQ(result.upgrades[0].upgrade, 0u);
  EXPECT_EQ(result.upgrades[0].outcome, UpgradeOutcome::kCompleted);
  EXPECT_GE(result.upgrades[0].trace.contingency_applies, 1);
  EXPECT_EQ(result.upgrades[1].upgrade, 1u);
  EXPECT_EQ(result.upgrades[1].outcome, UpgradeOutcome::kSkippedQuarantined);
  EXPECT_TRUE(result.upgrades[1].trace.steps.empty());

  // The journal tells the same story.
  const Journal::Replay replay = Journal::replay(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(count_records(replay.records, JournalRecordType::kCampaignStart),
            1u);
  EXPECT_GE(count_records(replay.records, JournalRecordType::kQuarantine), 1u);
  EXPECT_EQ(count_records(replay.records, JournalRecordType::kUpgradeEnd), 2u);
  EXPECT_EQ(count_records(replay.records, JournalRecordType::kWindowEnd), 2u);
  EXPECT_EQ(count_records(replay.records, JournalRecordType::kCampaignEnd),
            1u);

  // And the JSON summary carries the campaign-level counters the bench
  // emits.
  const std::string json = result.to_json().dump();
  EXPECT_NE(json.find("\"completed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"windows_completed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"quarantine_events\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_skips\""), std::string::npos);
  EXPECT_NE(json.find("\"skipped_quarantined\""), std::string::npos);
  std::remove(path.c_str());
}

// The campaign-level crash oracle: kill the whole campaign at every
// journal record boundary, resume from the replayed journal, and demand
// identical per-upgrade outcomes and traces, identical quarantine
// decisions, and an identical final configuration.
TEST_F(CampaignTest, CampaignCrashAtEveryRecordBoundaryResumesIdentically) {
  const CampaignScenario scenario = make_scenario();
  const CampaignRunner runner{evaluator_.get(), planner_.get(),
                              campaign_options()};
  const std::string path = journal_path("magus_campaign_oracle.wal");

  CampaignResult reference;
  std::uint64_t record_count = 0;
  {
    Journal journal{path, Journal::Mode::kTruncate};
    const CampaignEnv env = make_env(scenario, &journal);
    reference = runner.run(scenario.upgrades, scenario.schedule, env);
    record_count = journal.records_written();
  }
  ASSERT_TRUE(reference.completed);
  ASSERT_GT(record_count, 0u);
  const net::Configuration reference_config = model_->configuration();
  std::vector<std::string> reference_traces;
  for (const UpgradeResult& upgrade : reference.upgrades) {
    reference_traces.push_back(upgrade.trace.to_json().dump());
  }

  for (std::uint64_t crash = 0; crash < record_count; ++crash) {
    {
      Journal journal{path, Journal::Mode::kTruncate};
      journal.set_crash_after(crash);
      const CampaignEnv env = make_env(scenario, &journal);
      EXPECT_THROW(
          (void)runner.run(scenario.upgrades, scenario.schedule, env),
          JournalCrash)
          << "crash=" << crash;
    }
    Journal journal{path, Journal::Mode::kContinue};
    const Journal::Replay replay = Journal::replay(path);
    ASSERT_EQ(replay.records.size(), crash) << "crash=" << crash;
    CampaignEnv env = make_env(scenario, &journal);
    env.recovered = replay.records;
    const CampaignResult resumed =
        runner.run(scenario.upgrades, scenario.schedule, env);

    ASSERT_EQ(model_->configuration(), reference_config) << "crash=" << crash;
    ASSERT_EQ(resumed.upgrades.size(), reference.upgrades.size())
        << "crash=" << crash;
    for (std::size_t i = 0; i < resumed.upgrades.size(); ++i) {
      ASSERT_EQ(resumed.upgrades[i].upgrade, reference.upgrades[i].upgrade);
      ASSERT_EQ(resumed.upgrades[i].window, reference.upgrades[i].window);
      ASSERT_EQ(resumed.upgrades[i].outcome, reference.upgrades[i].outcome)
          << "crash=" << crash << " upgrade=" << i;
      ASSERT_EQ(resumed.upgrades[i].trace.to_json().dump(),
                reference_traces[i])
          << "crash=" << crash << " upgrade=" << i;
    }
    ASSERT_EQ(resumed.windows_completed, reference.windows_completed);
    ASSERT_EQ(resumed.quarantine_events, reference.quarantine_events);
    ASSERT_EQ(resumed.deadline_skips, reference.deadline_skips);
    ASSERT_EQ(resumed.quarantined_sectors, reference.quarantined_sectors);
    ASSERT_TRUE(resumed.completed);
    if (crash > 0) {
      // (crash == 0 leaves an empty journal — the rerun is a fresh start,
      // not a resume.)
      EXPECT_GE(resumed.resumes, 1) << "crash=" << crash;
    }
  }
  std::remove(path.c_str());
}

TEST_F(CampaignTest, ResumeRejectsMismatchedCampaign) {
  const CampaignScenario scenario = make_scenario();
  const std::string path = journal_path("magus_campaign_mismatch.wal");
  {
    Journal journal{path, Journal::Mode::kTruncate};
    const CampaignEnv env = make_env(scenario, &journal);
    const CampaignRunner runner{evaluator_.get(), planner_.get(),
                                campaign_options()};
    (void)runner.run(scenario.upgrades, scenario.schedule, env);
  }
  const Journal::Replay replay = Journal::replay(path);
  Journal journal{path, Journal::Mode::kContinue};
  CampaignEnv env = make_env(scenario, &journal);
  env.recovered = replay.records;
  CampaignOptions other = campaign_options();
  other.seed = 6;  // a different campaign must refuse this journal
  const CampaignRunner wrong_runner{evaluator_.get(), planner_.get(), other};
  EXPECT_THROW(
      (void)wrong_runner.run(scenario.upgrades, scenario.schedule, env),
      std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(CampaignTest, CarriedPlansMustFitTheCampaign) {
  const CampaignScenario scenario = make_scenario();
  const CampaignRunner runner{evaluator_.get(), planner_.get(),
                              campaign_options()};
  const std::string path = journal_path("magus_campaign_carried.wal");
  Journal journal{path, Journal::Mode::kTruncate};
  std::vector<core::MitigationPlan> plans;
  for (const traffic::PlannedUpgrade& upgrade : scenario.upgrades) {
    plans.push_back(planner_->plan_upgrade(upgrade.targets));
  }

  // Not parallel to the upgrade list.
  CampaignEnv env = make_env(scenario, &journal);
  env.plans = std::span{plans}.first(1);
  EXPECT_THROW((void)runner.run(scenario.upgrades, scenario.schedule, env),
               std::invalid_argument);

  // A density that does not fit the model's grid.
  plans[1].ue_density.pop_back();
  env.plans = plans;
  EXPECT_THROW((void)runner.run(scenario.upgrades, scenario.schedule, env),
               std::invalid_argument);
  // Both refusals came before the campaign journaled anything.
  EXPECT_EQ(journal.records_written(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignSeeds, UpgradeSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(upgrade_seed(1, 0), upgrade_seed(1, 0));
  EXPECT_NE(upgrade_seed(1, 0), upgrade_seed(1, 1));
  EXPECT_NE(upgrade_seed(1, 0), upgrade_seed(2, 0));
  EXPECT_NE(upgrade_seed(1, 5), 0u);
}

TEST(CampaignNames, OutcomeNamesAreStable) {
  EXPECT_STREQ(upgrade_outcome_name(UpgradeOutcome::kCompleted), "completed");
  EXPECT_STREQ(upgrade_outcome_name(UpgradeOutcome::kRolledBack),
               "rolled_back");
  EXPECT_STREQ(upgrade_outcome_name(UpgradeOutcome::kSkippedQuarantined),
               "skipped_quarantined");
  EXPECT_STREQ(recovery_action_name(RecoveryAction::kDeadlineSkip),
               "deadline_skip");
  EXPECT_STREQ(journal_record_type_name(JournalRecordType::kStepConfirm),
               "step-confirm");
}

TEST(WindowBudget, DerivesFromDurationAndUtilization) {
  EXPECT_DOUBLE_EQ(traffic::window_time_budget_s(5, 0.25), 4'500.0);
  EXPECT_DOUBLE_EQ(traffic::window_time_budget_s(1, 1.0), 3'600.0);
  EXPECT_THROW((void)traffic::window_time_budget_s(0, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::window_time_budget_s(5, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::window_time_budget_s(5, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace magus::exec
