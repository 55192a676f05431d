// Fault-aware migration executor: the acceptance scenarios of the
// robustness layer. Everything is deterministic — scripted faults plus a
// seeded RNG for the stochastic handover outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/contingency.h"
#include "core/planner.h"
#include "exec/executor.h"
#include "exec/fault_injector.h"
#include "pathloss/database.h"
#include "test_helpers.h"

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

/// LineWorld plus a third sector in the middle of the line: migrating the
/// east sector off-air leans on the middle one, so knocking the middle
/// sector out mid-migration is a genuine neighbor outage.
class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : world_(12, 7.0) {
    net::Sector mid = world_.network.sector(world_.west);
    mid.site = 2;
    mid.position = {600.0, 50.0};
    mid_ = world_.network.add_sector(mid);
    // A steep in-fill cell: dominant over the two center cells, nearly
    // inaudible elsewhere. Losing it is a genuine coverage hole (the
    // center falls back to the distant ends), not an interference win.
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

  /// A fresh gradual plan for taking the east sector off-air.
  [[nodiscard]] core::MitigationPlan plan_east() const {
    const net::SectorId targets[] = {world_.east};
    return planner_->plan_upgrade(targets);
  }

  /// The step index in the middle of the ramp — a genuinely mid-migration
  /// fault point.
  [[nodiscard]] static int mid_step(const core::GradualPlan& plan) {
    return std::max(1, static_cast<int>(plan.steps.size() / 2));
  }

  LineWorld world_;
  net::SectorId mid_ = net::kInvalidSector;
  std::unique_ptr<model::AnalysisModel> model_;
  std::unique_ptr<core::Evaluator> evaluator_;
  std::unique_ptr<core::MagusPlanner> planner_;
};

TEST_F(ExecTest, FaultFreeRunAppliesEveryStep) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};
  const MigrationExecutor executor{evaluator_.get()};
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/7);
  ASSERT_FALSE(trace.steps.empty());
  EXPECT_TRUE(trace.completed);
  EXPECT_FALSE(trace.rolled_back);
  EXPECT_EQ(trace.recovery_action_count(), 0);
  EXPECT_EQ(trace.floor_violations, 0);
  for (const StepRecord& rec : trace.steps) {
    EXPECT_EQ(rec.status, StepStatus::kApplied);
    EXPECT_TRUE(rec.faults.empty());
    EXPECT_NEAR(rec.realized_utility, rec.planned_utility,
                std::abs(rec.planned_utility) * 1e-9);
  }
  EXPECT_FALSE(model_->configuration()[world_.east].active);
  EXPECT_NEAR(trace.final_utility, plan.gradual.floor_utility,
              std::abs(plan.gradual.floor_utility) * 1e-9);
  EXPECT_GT(trace.makespan_s, 0.0);
}

TEST_F(ExecTest, NeighborOutageRecoveredViaContingency) {
  const net::SectorId mid_outage[] = {mid_};
  const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
  const auto table = core::ContingencyTable::build(*planner_, outages);
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ScriptedFaultInjector injector;
  injector.add(FaultEvent{FaultKind::kSectorOutage, mid_step(plan.gradual),
                          mid_});

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};
  const ExecutionTrace trace = executor.execute(
      plan.gradual, targets, /*seed=*/11, &injector, &table);

  ASSERT_FALSE(trace.steps.empty());
  ASSERT_FALSE(trace.fault_events.empty());
  EXPECT_EQ(trace.fault_events[0].kind, FaultKind::kSectorOutage);
  EXPECT_GE(trace.contingency_applies, 1);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kContingency));
  EXPECT_TRUE(trace.completed);
  EXPECT_FALSE(trace.rolled_back);
  ASSERT_EQ(trace.failed_sectors.size(), 1u);
  EXPECT_EQ(trace.failed_sectors[0], mid_);
  // The fault step ends recovered; the window still finishes the upgrade
  // with both the target and the dead neighbor off-air.
  const auto faulted = std::find_if(
      trace.steps.begin(), trace.steps.end(),
      [](const StepRecord& rec) { return !rec.faults.empty(); });
  ASSERT_NE(faulted, trace.steps.end());
  EXPECT_EQ(faulted->status, StepStatus::kRecovered);
  EXPECT_FALSE(model_->configuration()[world_.east].active);
  EXPECT_FALSE(model_->configuration()[mid_].active);
  ASSERT_NE(table.lookup(mid_outage), nullptr);
}

TEST_F(ExecTest, HandoverStormAbsorbedByRetryWithinFloor) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ScriptedFaultInjector injector;
  for (int step = 1; step < static_cast<int>(plan.gradual.steps.size());
       ++step) {
    FaultEvent storm;
    storm.kind = FaultKind::kHandoverFailure;
    storm.step = step;
    storm.handover_failure_probability = 0.6;
    injector.add(storm);
  }

  ExecutorOptions options;
  options.handover.max_attempts = 5;
  const MigrationExecutor executor{evaluator_.get(), options};
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/13, &injector);

  ASSERT_FALSE(trace.steps.empty());
  EXPECT_TRUE(trace.completed);
  EXPECT_FALSE(trace.rolled_back);
  // The storm is absorbed entirely inside the FSM's retry machinery: no
  // escalation past rung 1, and the utility floor holds.
  EXPECT_EQ(trace.contingency_applies, 0);
  EXPECT_EQ(trace.replans, 0);
  EXPECT_EQ(trace.rollbacks, 0);
  EXPECT_EQ(trace.floor_violations, 0);
  EXPECT_GT(trace.signaling.failed_procedures, 0.0);
  EXPECT_GT(trace.signaling.retried_procedures, 0.0);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kRetry));
  EXPECT_GE(trace.retries, 1);
  EXPECT_GE(trace.final_utility,
            plan.gradual.floor_utility -
                std::abs(plan.gradual.floor_utility) *
                    executor.options().utility_tolerance);
}

TEST_F(ExecTest, ConfigPushRejectAbsorbedByBackoff) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ScriptedFaultInjector injector;
  FaultEvent reject;
  reject.kind = FaultKind::kConfigPushReject;
  reject.step = 1;
  reject.reject_attempts = 2;
  injector.add(reject);

  const MigrationExecutor executor{evaluator_.get()};
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/17, &injector);

  ASSERT_FALSE(trace.steps.empty());
  EXPECT_TRUE(trace.completed);
  const StepRecord& first = trace.steps.front();
  EXPECT_EQ(first.step, 1);
  EXPECT_EQ(first.push_attempts, 3);  // two rejects, third push lands
  EXPECT_GT(first.backoff_wait_s, 0.0);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kRetry));
  EXPECT_EQ(first.status, StepStatus::kApplied);
  EXPECT_EQ(trace.floor_violations, 0);
}

TEST_F(ExecTest, ReplanCompletesAfterOutageWithoutContingency) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ScriptedFaultInjector injector;
  injector.add(FaultEvent{FaultKind::kSectorOutage, mid_step(plan.gradual),
                          mid_});

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/19, &injector,
                       /*contingencies=*/nullptr, planner_.get());

  ASSERT_FALSE(trace.steps.empty());
  EXPECT_GE(trace.replans, 1);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kReplan));
  EXPECT_TRUE(trace.completed);
  EXPECT_EQ(trace.steps.back().status, StepStatus::kReplanned);
  EXPECT_FALSE(model_->configuration()[world_.east].active);
  EXPECT_FALSE(model_->configuration()[mid_].active);
}

TEST_F(ExecTest, LadderExhaustionRollsBackToLastSafe) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};
  const int fault_step = mid_step(plan.gradual);

  ScriptedFaultInjector injector;
  injector.add(FaultEvent{FaultKind::kSectorOutage, fault_step, mid_});

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};
  // No contingency table, no re-planner: rungs 2 and 3 are unarmed.
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/23, &injector);

  ASSERT_FALSE(trace.steps.empty());
  EXPECT_TRUE(trace.rolled_back);
  EXPECT_FALSE(trace.completed);
  EXPECT_EQ(trace.rollbacks, 1);
  EXPECT_TRUE(has_action(trace, RecoveryAction::kRollback));
  EXPECT_EQ(trace.steps.back().status, StepStatus::kRolledBack);
  // The rollback restores the last in-tolerance ramp configuration, with
  // the dead neighbor masked off.
  const auto& expected =
      plan.gradual.steps[static_cast<std::size_t>(fault_step - 1)].config;
  EXPECT_FALSE(model_->configuration()[mid_].active);
  EXPECT_EQ(model_->configuration()[world_.east].power_dbm,
            expected[world_.east].power_dbm);
}

TEST_F(ExecTest, SameSeedSameTrace) {
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};
  ScriptedFaultInjector injector_a;
  ScriptedFaultInjector injector_b;
  for (ScriptedFaultInjector* injector : {&injector_a, &injector_b}) {
    FaultEvent storm;
    storm.kind = FaultKind::kHandoverFailure;
    storm.step = 1;
    storm.handover_failure_probability = 0.5;
    injector->add(storm);
  }
  const MigrationExecutor executor{evaluator_.get()};
  const ExecutionTrace a =
      executor.execute(plan.gradual, targets, /*seed=*/31, &injector_a);
  const ExecutionTrace b =
      executor.execute(plan.gradual, targets, /*seed=*/31, &injector_b);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_DOUBLE_EQ(a.signaling.failed_procedures,
                   b.signaling.failed_procedures);
  EXPECT_DOUBLE_EQ(a.final_utility, b.final_utility);
  EXPECT_DOUBLE_EQ(a.total_lost_service_ue_seconds,
                   b.total_lost_service_ue_seconds);
}

TEST_F(ExecTest, CorruptedDatabaseFallsBackToRecomputeThenExecutes) {
  // Materialize the world's footprints into an on-disk database, corrupt
  // it, and rebuild through load_or_rebuild — then run a migration on the
  // rebuilt data to prove the repaired database is fully usable.
  const std::vector<net::SectorId> sectors = {world_.west, world_.east, mid_};
  const std::vector<radio::TiltIndex> tilts = {-1, 0, 1};
  pathloss::PathLossDatabase db{world_.provider->grid()};
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      db.insert(s, t, world_.provider->footprint(s, t));
    }
  }
  const std::string path = ::testing::TempDir() + "/magus_exec_pl.bin";
  db.save(path);
  {
    // Flip one byte near the end of the last gain plane (the
    // coverage-index section follows it): checksum must catch it.
    std::size_t file_bytes = 0;
    const auto flip_at = static_cast<std::streamoff>(
        pathloss::format::read_v3(path, file_bytes).planes_end - 3);
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(flip_at);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(flip_at);
    byte = static_cast<char>(byte ^ 0x5A);
    file.write(&byte, 1);
  }
  EXPECT_THROW((void)pathloss::PathLossDatabase::load(path),
               std::runtime_error);

  pathloss::PathLossDatabase::LoadReport report;
  pathloss::PathLossDatabase rebuilt = pathloss::PathLossDatabase::load_or_rebuild(
      path, *world_.provider, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_TRUE(report.resaved);
  EXPECT_NE(report.error.find("checksum mismatch"), std::string::npos)
      << report.error;
  EXPECT_EQ(rebuilt.entry_count(), sectors.size() * tilts.size());
  // The re-saved file is clean again.
  EXPECT_NO_THROW((void)pathloss::PathLossDatabase::load(path));
  std::remove(path.c_str());

  // Drive a full fault-free migration off the rebuilt database.
  model::AnalysisModel model{&world_.network, &rebuilt};
  model.freeze_uniform_ue_density();
  core::Evaluator evaluator{&model, core::Utility::performance()};
  core::PlannerOptions options;
  options.mode = core::TuningMode::kPower;
  options.neighbor_radius_m = 2'000.0;
  const core::MagusPlanner planner{&evaluator, options};
  const net::SectorId targets[] = {world_.east};
  const core::MitigationPlan plan = planner.plan_upgrade(targets);
  const MigrationExecutor executor{&evaluator};
  const ExecutionTrace trace =
      executor.execute(plan.gradual, targets, /*seed=*/37);
  ASSERT_FALSE(trace.steps.empty());
  EXPECT_TRUE(trace.completed);
  EXPECT_EQ(trace.recovery_action_count(), 0);
  EXPECT_FALSE(model.configuration()[world_.east].active);
}

TEST(ExecutorValidation, RejectsBadArguments) {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();
  core::Evaluator evaluator{&model, core::Utility::performance()};
  EXPECT_THROW(MigrationExecutor(nullptr), std::invalid_argument);
  ExecutorOptions bad_tol;
  bad_tol.utility_tolerance = -0.1;
  EXPECT_THROW(MigrationExecutor(&evaluator, bad_tol), std::invalid_argument);
  ExecutorOptions bad_interval;
  bad_interval.step_interval_s = 0.0;
  EXPECT_THROW(MigrationExecutor(&evaluator, bad_interval),
               std::invalid_argument);
  const MigrationExecutor executor{&evaluator};
  const net::SectorId targets[] = {world.east};
  EXPECT_THROW((void)executor.execute(core::GradualPlan{}, targets, 1),
               std::invalid_argument);
}

TEST(FaultInjectors, ScriptedReplaysAndRandomIsSeeded) {
  ScriptedFaultInjector scripted;
  scripted.add(FaultEvent{FaultKind::kSectorOutage, 2, 5});
  scripted.add(FaultEvent{FaultKind::kHandoverFailure, 2});
  scripted.add(FaultEvent{FaultKind::kConfigPushReject, 4});
  EXPECT_EQ(scripted.faults_for_step(1).size(), 0u);
  EXPECT_EQ(scripted.faults_for_step(2).size(), 2u);
  EXPECT_EQ(scripted.faults_for_step(4).size(), 1u);

  RandomFaultOptions options;
  options.outage_probability_per_step = 0.5;
  options.storm_probability_per_step = 0.5;
  options.push_reject_probability_per_step = 0.5;
  options.outage_candidates = {0, 1, 2};
  RandomFaultInjector a{99, options};
  RandomFaultInjector b{99, options};
  std::size_t total = 0;
  for (int step = 1; step <= 20; ++step) {
    const auto fa = a.faults_for_step(step);
    const auto fb = b.faults_for_step(step);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].kind, fb[i].kind);
      EXPECT_EQ(fa[i].sector, fb[i].sector);
    }
    total += fa.size();
  }
  EXPECT_GT(total, 0u);

  RandomFaultOptions bad = options;
  bad.storm_probability_per_step = 1.5;
  EXPECT_THROW(RandomFaultInjector(1, bad), std::invalid_argument);
}

TEST(RecoveryNames, AreStable) {
  EXPECT_STREQ(recovery_action_name(RecoveryAction::kRetry), "retry");
  EXPECT_STREQ(recovery_action_name(RecoveryAction::kContingency),
               "contingency");
  EXPECT_STREQ(recovery_action_name(RecoveryAction::kReplan), "replan");
  EXPECT_STREQ(recovery_action_name(RecoveryAction::kRollback), "rollback");
  EXPECT_STREQ(step_status_name(StepStatus::kApplied), "applied");
  EXPECT_STREQ(step_status_name(StepStatus::kRecovered), "recovered");
  EXPECT_STREQ(step_status_name(StepStatus::kReplanned), "replanned");
  EXPECT_STREQ(step_status_name(StepStatus::kRolledBack), "rolled_back");
  EXPECT_STREQ(fault_kind_name(FaultKind::kSectorOutage), "sector-outage");
  EXPECT_STREQ(fault_kind_name(FaultKind::kHandoverFailure),
               "handover-failure");
  EXPECT_STREQ(fault_kind_name(FaultKind::kConfigPushReject),
               "config-push-reject");
}

TEST_F(ExecTest, TraceJsonExportsFullRecoveryStory) {
  const std::vector<std::vector<net::SectorId>> outages = {{mid_}};
  const auto table = core::ContingencyTable::build(*planner_, outages);
  const core::MitigationPlan plan = plan_east();
  const net::SectorId targets[] = {world_.east};

  ScriptedFaultInjector injector;
  injector.add(FaultEvent{FaultKind::kSectorOutage, mid_step(plan.gradual),
                          mid_});

  ExecutorOptions options;
  options.utility_tolerance = 0.01;
  const MigrationExecutor executor{evaluator_.get(), options};
  const ExecutionTrace trace = executor.execute(
      plan.gradual, targets, /*seed=*/11, &injector, &table);

  const std::string json = trace.to_json().dump();
  // Window-level outcome and counters.
  EXPECT_NE(json.find("\"completed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"rolled_back\": false"), std::string::npos);
  EXPECT_NE(json.find("\"contingency_applies\": " +
                      std::to_string(trace.contingency_applies)),
            std::string::npos);
  EXPECT_NE(json.find("\"recovery_action_count\": " +
                      std::to_string(trace.recovery_action_count())),
            std::string::npos);
  // The flattened fault list names the scripted outage and its sector.
  EXPECT_NE(json.find("\"kind\": \"sector-outage\""), std::string::npos);
  EXPECT_NE(json.find("\"sector\": " + std::to_string(mid_)),
            std::string::npos);
  // Per-step records carry the status names and the ladder actions.
  EXPECT_NE(json.find("\"status\": \"applied\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"recovered\""), std::string::npos);
  EXPECT_NE(json.find("\"contingency\""), std::string::npos);
  // Signaling totals come along.
  EXPECT_NE(json.find("\"signaling\""), std::string::npos);
  EXPECT_NE(json.find("\"handover_requests\""), std::string::npos);
  // One JSON step record per executed step.
  std::size_t step_records = 0;
  for (std::size_t pos = json.find("\"planned_utility\"");
       pos != std::string::npos;
       pos = json.find("\"planned_utility\"", pos + 1)) {
    ++step_records;
  }
  EXPECT_EQ(step_records, trace.steps.size());
}

}  // namespace
}  // namespace magus::exec
