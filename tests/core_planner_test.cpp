#include <gtest/gtest.h>

#include <functional>

#include "core/planner.h"
#include "core/strategies.h"
#include "obs/metrics.h"
#include "test_helpers.h"

namespace magus::core {
namespace {

using magus::testing::LineWorld;

class PrePlanTest : public ::testing::Test {
 protected:
  PrePlanTest()
      : world_(10, 9.0),
        model_(&world_.network, world_.provider.get()),
        evaluator_(&model_, Utility::performance()) {
    model_.freeze_uniform_ue_density();
  }

  LineWorld world_;
  model::AnalysisModel model_;
  Evaluator evaluator_;
};

TEST_F(PrePlanTest, NeverDecreasesUtility) {
  const double before = evaluator_.evaluate();
  const std::vector<net::SectorId> sectors = {world_.west, world_.east};
  const int accepted = pre_plan_power(evaluator_, sectors);
  EXPECT_GE(accepted, 0);
  EXPECT_GE(evaluator_.evaluate(), before - 1e-9);
}

TEST_F(PrePlanTest, ReachesLocalOptimumForItsMoveSet) {
  const std::vector<net::SectorId> sectors = {world_.west, world_.east};
  (void)pre_plan_power(evaluator_, sectors, 1.0, 3);
  const double planned = evaluator_.evaluate();
  // No single +-1 dB move on any planned sector improves the utility.
  for (const net::SectorId s : sectors) {
    for (const double delta : {1.0, -1.0}) {
      const double before_power = model_.configuration()[s].power_dbm;
      const auto snapshot = model_.snapshot();
      model_.set_power(s, before_power + delta);
      if (model_.configuration()[s].power_dbm != before_power) {
        EXPECT_LE(evaluator_.evaluate(), planned + 1e-9)
            << "sector " << s << " delta " << delta;
      }
      model_.restore(snapshot);
    }
  }
}

TEST_F(PrePlanTest, SkipsInactiveSectors) {
  model_.set_active(world_.east, false);
  const std::vector<net::SectorId> sectors = {world_.east};
  EXPECT_EQ(pre_plan_power(evaluator_, sectors), 0);
  EXPECT_FALSE(model_.configuration()[world_.east].active);
}

TEST_F(PrePlanTest, PlannerRecordsCBefore) {
  PlannerOptions options;
  options.mode = TuningMode::kPower;
  options.neighbor_radius_m = 2'000.0;
  MagusPlanner planner{&evaluator_, options};
  const std::vector<net::SectorId> targets = {world_.east};
  const MitigationPlan plan = planner.plan_upgrade(targets);
  // c_before is what f_before was measured on, and the target is on-air
  // in it.
  EXPECT_TRUE(plan.c_before[world_.east].active);
  const double f_c_before =
      evaluator_.evaluate_configuration(plan.c_before);
  EXPECT_NEAR(f_c_before, plan.f_before, std::abs(plan.f_before) * 1e-9);
}

TEST_F(PrePlanTest, HybridPolishNeverHurts) {
  const std::vector<net::SectorId> targets = {world_.east};

  PlannerOptions no_polish;
  no_polish.mode = TuningMode::kPower;
  no_polish.neighbor_radius_m = 2'000.0;
  no_polish.hybrid_polish = false;
  const MitigationPlan raw =
      MagusPlanner{&evaluator_, no_polish}.plan_upgrade(targets);

  PlannerOptions with_polish = no_polish;
  with_polish.hybrid_polish = true;
  const MitigationPlan polished =
      MagusPlanner{&evaluator_, with_polish}.plan_upgrade(targets);

  EXPECT_GE(polished.f_after, raw.f_after - 1e-9);
  EXPECT_GE(polished.recovery, raw.recovery - 1e-9);
}

TEST_F(PrePlanTest, PolishRespectsModeMoveSet) {
  // Power mode must not change tilts; tilt mode must not change powers.
  const std::vector<net::SectorId> targets = {world_.east};

  PlannerOptions options;
  options.neighbor_radius_m = 2'000.0;
  options.mode = TuningMode::kPower;
  const auto power_plan =
      MagusPlanner{&evaluator_, options}.plan_upgrade(targets);
  for (std::size_t i = 0; i < power_plan.search.config.size(); ++i) {
    const auto id = static_cast<net::SectorId>(i);
    EXPECT_EQ(power_plan.search.config[id].tilt, power_plan.c_before[id].tilt);
  }

  options.mode = TuningMode::kTilt;
  const auto tilt_plan =
      MagusPlanner{&evaluator_, options}.plan_upgrade(targets);
  for (std::size_t i = 0; i < tilt_plan.search.config.size(); ++i) {
    const auto id = static_cast<net::SectorId>(i);
    if (id == world_.east) continue;  // the target only goes off-air
    EXPECT_DOUBLE_EQ(tilt_plan.search.config[id].power_dbm,
                     tilt_plan.c_before[id].power_dbm);
  }
}

TEST_F(PrePlanTest, FeedbackRespectsMoveSetFlags) {
  model_.set_active(world_.east, false);
  const std::vector<net::SectorId> involved = {world_.west};

  FeedbackOptions tilt_only;
  tilt_only.allow_power = false;
  const double power_before = model_.configuration()[world_.west].power_dbm;
  const FeedbackRun run = run_feedback_search(evaluator_, involved, tilt_only);
  EXPECT_DOUBLE_EQ(run.final_config[world_.west].power_dbm, power_before);

  FeedbackOptions nothing;
  nothing.allow_power = false;
  nothing.allow_tilt = false;
  const FeedbackRun idle = run_feedback_search(evaluator_, involved, nothing);
  EXPECT_TRUE(idle.utility_per_step.empty());
}


[[nodiscard]] std::uint64_t index_builds() {
  return obs::MetricsRegistry::global().counter("model.index.builds").value();
}

/// A fresh LineWorld market, so every case starts with no coverage index.
struct LineMarket {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  Evaluator evaluator{&model, Utility::performance()};

  LineMarket() { model.freeze_uniform_ue_density(); }

  [[nodiscard]] static PlannerOptions options() {
    PlannerOptions options;
    options.mode = TuningMode::kPower;
    options.neighbor_radius_m = 2'000.0;
    options.threads = 1;
    return options;
  }
};

TEST(PlannerLazyBinding, ConstructionBuildsNothing) {
  LineMarket market;
  const std::uint64_t before = index_builds();
  const MagusPlanner planner{&market.evaluator, LineMarket::options()};
  EXPECT_FALSE(market.model.coverage_index_bound());
  EXPECT_EQ(market.model.market_context().coverage_index(), nullptr);
  EXPECT_EQ(index_builds(), before);
}

TEST(PlannerLazyBinding, EveryEntryPointBindsOnFirstUse) {
  const std::vector<net::SectorId> targets = {1};  // LineWorld east
  const std::vector<
      std::pair<const char*, std::function<void(const MagusPlanner&)>>>
      entry_points = {
          {"plan_upgrade",
           [&](const MagusPlanner& p) { (void)p.plan_upgrade(targets); }},
          {"replan_from_current",
           [&](const MagusPlanner& p) {
             (void)p.replan_from_current(targets);
           }},
          {"parallel_evaluator",
           [](const MagusPlanner& p) { (void)p.parallel_evaluator(); }},
      };
  for (const auto& [name, call] : entry_points) {
    LineMarket market;
    const MagusPlanner planner{&market.evaluator, LineMarket::options()};
    const std::uint64_t before = index_builds();
    call(planner);
    EXPECT_TRUE(market.model.coverage_index_bound()) << name;
    EXPECT_EQ(index_builds(), before + 1) << name;
    call(planner);  // bound once: later calls build nothing
    EXPECT_EQ(index_builds(), before + 1) << name;
  }
}

TEST(PlannerLazyBinding, LazyPlanEqualsEagerlyBoundPlan) {
  const std::vector<net::SectorId> targets = {1};  // LineWorld east
  LineMarket lazy_market;
  const MitigationPlan lazy =
      MagusPlanner{&lazy_market.evaluator, LineMarket::options()}
          .plan_upgrade(targets);

  LineMarket eager_market;
  const MagusPlanner eager_planner{&eager_market.evaluator,
                                   LineMarket::options()};
  (void)eager_planner.parallel_evaluator();
  const MitigationPlan eager = eager_planner.plan_upgrade(targets);

  EXPECT_EQ(lazy.c_before, eager.c_before);
  EXPECT_EQ(lazy.search.config, eager.search.config);
  EXPECT_EQ(lazy.f_before, eager.f_before);
  EXPECT_EQ(lazy.f_after, eager.f_after);
  EXPECT_EQ(lazy.recovery, eager.recovery);
  EXPECT_EQ(lazy.search.candidate_evaluations,
            eager.search.candidate_evaluations);
  ASSERT_EQ(lazy.gradual.steps.size(), eager.gradual.steps.size());
  for (std::size_t k = 0; k < lazy.gradual.steps.size(); ++k) {
    EXPECT_EQ(lazy.gradual.steps[k].config, eager.gradual.steps[k].config);
    EXPECT_EQ(lazy.gradual.steps[k].utility, eager.gradual.steps[k].utility);
  }
  EXPECT_EQ(lazy.ue_density, eager.ue_density);
}

// Serial evaluations (C_before, C_upgrade, pre-plan and polish steps) count
// under the registry's evaluator.serial_evals, one per evaluate() call.
TEST(PlannerCounters, SerialEvalsCounterMatchesTheSerialEvaluator) {
  LineMarket market;
  const MagusPlanner planner{&market.evaluator, LineMarket::options()};
  obs::Counter& serial_evals =
      obs::MetricsRegistry::global().counter("evaluator.serial_evals");
  const std::uint64_t counted_before = serial_evals.value();
  const long evaluated_before = market.evaluator.evaluation_count();
  const std::vector<net::SectorId> targets = {1};  // LineWorld east
  (void)planner.plan_upgrade(targets);
  const long evaluated = market.evaluator.evaluation_count() - evaluated_before;
  EXPECT_GT(evaluated, 0);
  EXPECT_EQ(serial_evals.value() - counted_before,
            static_cast<std::uint64_t>(evaluated));
}

TEST(PlannerLazyBinding, PlansCarryTheirDensity) {
  LineMarket market;
  const MagusPlanner planner{&market.evaluator, LineMarket::options()};
  const std::vector<net::SectorId> targets = {1};  // LineWorld east
  const MitigationPlan plan = planner.plan_upgrade(targets);
  // The density frozen at C_before, still the model's after planning.
  const std::span<const double> frozen = market.model.ue_density();
  EXPECT_EQ(plan.ue_density,
            std::vector<double>(frozen.begin(), frozen.end()));

  // An emergency re-plan runs under the density it finds.
  std::vector<double> custom(frozen.size(), 1.0);
  market.model.set_ue_density(custom);
  const MitigationPlan replan = planner.replan_from_current(targets);
  EXPECT_EQ(replan.ue_density, custom);
}

}  // namespace
}  // namespace magus::core
