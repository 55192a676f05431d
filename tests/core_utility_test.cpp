#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/recovery.h"
#include "core/utility.h"
#include "lte/amc.h"
#include "model/analysis_model.h"
#include "model/kernels.h"
#include "test_helpers.h"

namespace magus::core {
namespace {

using magus::testing::LineWorld;

TEST(Utility, PerformanceIsLogRate) {
  const Utility u = Utility::performance();
  EXPECT_DOUBLE_EQ(u.per_ue(1.0), 0.0);
  EXPECT_NEAR(u.per_ue(std::exp(1.0)), 1.0, 1e-12);
  EXPECT_GT(u.per_ue(10e6), u.per_ue(1e6));
  EXPECT_EQ(u.name(), "performance");
}

TEST(Utility, CoverageCountsUes) {
  const Utility u = Utility::coverage();
  EXPECT_DOUBLE_EQ(u.per_ue(1.0), 1.0);
  EXPECT_DOUBLE_EQ(u.per_ue(100e6), 1.0);
}

TEST(Utility, RateThreshold) {
  const Utility u = Utility::rate_threshold(5e6);
  EXPECT_DOUBLE_EQ(u.per_ue(4e6), 0.0);
  EXPECT_DOUBLE_EQ(u.per_ue(5e6), 1.0);
}

TEST(Utility, CustomAndValidation) {
  const Utility u{"sqrt", [](double r) { return std::sqrt(r); }};
  EXPECT_DOUBLE_EQ(u.per_ue(4.0), 2.0);
  EXPECT_THROW(Utility("bad", nullptr), std::invalid_argument);
}

TEST(Recovery, Formula7) {
  // f_before=10, f_upgrade=4, f_after=7 -> (7-4)/(10-4) = 0.5.
  EXPECT_DOUBLE_EQ(recovery_ratio({10.0, 4.0, 7.0}), 0.5);
  EXPECT_DOUBLE_EQ(recovery_ratio({10.0, 4.0, 10.0}), 1.0);
  EXPECT_DOUBLE_EQ(recovery_ratio({10.0, 4.0, 4.0}), 0.0);
  // Cross-utility regressions can be negative (Table 2).
  EXPECT_LT(recovery_ratio({10.0, 4.0, 2.0}), 0.0);
  // No degradation -> nothing to recover.
  EXPECT_DOUBLE_EQ(recovery_ratio({10.0, 10.0, 10.0}), 0.0);
}

/// The evaluator's utility pass without the per-(sector, CQI) memo: the
/// scheduler share and the per-UE utility run once per served cell, summed
/// in cell order. evaluate_utility must reproduce it bit-for-bit.
[[nodiscard]] double per_cell_utility(const model::EvalContext& context,
                                      const Utility& utility) {
  const auto cells = static_cast<std::size_t>(context.cell_count());
  const auto ue = context.ue_density();
  model::CqiMemo memo;
  std::vector<double> load(context.network().sector_count());
  model::cqi_and_loads_kernel(context.state(), ue, context.noise_mw(),
                              context.options().min_service_sinr_db, memo,
                              load);
  const std::vector<std::int8_t>& cqi = memo.cqi;
  const auto bandwidth = context.network().carrier().bandwidth;
  const auto& scheduler = context.options().scheduler;
  double total = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (cqi[i] <= 0 || ue[i] <= 0.0) continue;
    const double rate = scheduler.shared_rate_bps(
        lte::max_rate_bps_for_cqi(cqi[i], bandwidth),
        load[static_cast<std::size_t>(context.state().best[i])]);
    if (rate > 0.0) total += ue[i] * utility.per_ue(rate);
  }
  return total;
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : world_(10, 9.0),
        model_(&world_.network, world_.provider.get()),
        evaluator_(&model_, Utility::performance()) {
    model_.freeze_uniform_ue_density();
  }

  LineWorld world_;
  model::AnalysisModel model_;
  Evaluator evaluator_;
};

TEST_F(EvaluatorTest, MatchesHandComputedSum) {
  EXPECT_EQ(evaluator_.evaluate(),
            per_cell_utility(model_, Utility::performance()));
  // Independently: sum over grids of UE(g) * ln(rate(g)) through the
  // per-grid accessors.
  double expected = 0.0;
  for (geo::GridIndex g = 0; g < model_.cell_count(); ++g) {
    const double rate = model_.rate_bps(g);
    if (rate > 0.0) {
      expected += model_.ue_density()[static_cast<std::size_t>(g)] *
                  std::log(rate);
    }
  }
  EXPECT_NEAR(evaluator_.evaluate(), expected, 1e-9);
}

TEST_F(EvaluatorTest, MemoMatchesPerCellLoopForEveryUtility) {
  // A threshold at the median served rate, so both of its branches run.
  std::vector<double> rates;
  for (geo::GridIndex g = 0; g < model_.cell_count(); ++g) {
    if (model_.rate_bps(g) > 0.0) rates.push_back(model_.rate_bps(g));
  }
  ASSERT_GE(rates.size(), 2u);
  std::sort(rates.begin(), rates.end());
  const double median = rates[rates.size() / 2];
  ASSERT_LT(rates.front(), median);
  // The custom utility returns 0.0 and -1.0, the values a sentinel-based
  // "skip" mark would most likely use.
  const Utility custom{"step", [median](double rate_bps) {
                         return rate_bps < median ? -1.0 : 0.0;
                       }};
  for (const Utility& utility :
       {Utility::performance(), Utility::coverage(),
        Utility::rate_threshold(median), custom}) {
    EvalScratch scratch;
    EXPECT_EQ(evaluate_utility(model_, utility, scratch),
              per_cell_utility(model_, utility))
        << utility.name();
  }
}

TEST(Evaluator, OverheadAwareZeroRateCellsContributeNothing) {
  // The west sector carries so many UEs that the overhead-aware share
  // clamps to 0: its in-service cells take the skip branch while the
  // lightly loaded east sector still scores.
  LineWorld world{10, 9.0};
  world.network.set_subscribers(world.west, 80.0);
  world.network.set_subscribers(world.east, 10.0);
  model::ModelOptions options;
  options.scheduler.kind = lte::SchedulerKind::kOverheadAware;
  options.scheduler.per_ue_overhead = 0.02;
  model::AnalysisModel model{&world.network, world.provider.get(), options};
  model.freeze_uniform_ue_density();

  int clamped = 0;
  int scored = 0;
  for (geo::GridIndex g = 0; g < model.cell_count(); ++g) {
    if (!model.in_service(g)) continue;
    (model.rate_bps(g) > 0.0 ? scored : clamped) += 1;
  }
  ASSERT_GT(clamped, 0);
  ASSERT_GT(scored, 0);

  const Utility coverage = Utility::coverage();
  EvalScratch scratch;
  const double value = evaluate_utility(model, coverage, scratch);
  EXPECT_EQ(value, per_cell_utility(model, coverage));
  EXPECT_GT(value, 0.0);
  const Utility performance = Utility::performance();
  EXPECT_EQ(evaluate_utility(model, performance, scratch),
            per_cell_utility(model, performance));
}

TEST(Evaluator, ScratchReuseAcrossModelsDoesNotLeakMemo) {
  // Same geometry, different per-sector loads: every (sector, CQI) term
  // differs between the two models, so a memo surviving from one
  // evaluation into the next would change the second result.
  LineWorld light{10, 9.0};
  LineWorld heavy{10, 9.0};
  heavy.network.set_subscribers(heavy.west, 40.0);
  heavy.network.set_subscribers(heavy.east, 25.0);
  model::AnalysisModel a{&light.network, light.provider.get()};
  model::AnalysisModel b{&heavy.network, heavy.provider.get()};
  a.freeze_uniform_ue_density();
  b.freeze_uniform_ue_density();

  const Utility utility = Utility::performance();
  const double expected_a = per_cell_utility(a, utility);
  const double expected_b = per_cell_utility(b, utility);
  ASSERT_NE(expected_a, expected_b);

  EvalScratch scratch;
  EXPECT_EQ(evaluate_utility(a, utility, scratch), expected_a);
  EXPECT_EQ(evaluate_utility(b, utility, scratch), expected_b);
  EXPECT_EQ(evaluate_utility(a, utility, scratch), expected_a);
}

TEST_F(EvaluatorTest, CoverageUtilityCountsCoveredUes) {
  Evaluator coverage{&model_, Utility::coverage()};
  double covered_ues = 0.0;
  for (geo::GridIndex g = 0; g < model_.cell_count(); ++g) {
    if (model_.in_service(g)) {
      covered_ues += model_.ue_density()[static_cast<std::size_t>(g)];
    }
  }
  EXPECT_NEAR(coverage.evaluate(), covered_ues, 1e-9);
}

TEST_F(EvaluatorTest, UpgradeDegradesUtility) {
  const double before = evaluator_.evaluate();
  model_.set_active(world_.east, false);
  const double upgrade = evaluator_.evaluate();
  EXPECT_LT(upgrade, before);
}

TEST_F(EvaluatorTest, EvaluateConfigurationRestoresState) {
  const double before = evaluator_.evaluate();
  const net::Configuration off =
      model_.configuration().with_sector_off(world_.east);
  const double f_off = evaluator_.evaluate_configuration(off);
  EXPECT_LT(f_off, before);
  // The model must be back at the original state.
  EXPECT_NEAR(evaluator_.evaluate(), before, 1e-9);
  EXPECT_TRUE(model_.configuration()[world_.east].active);
}

TEST_F(EvaluatorTest, CountsEvaluations) {
  const long start = evaluator_.evaluation_count();
  (void)evaluator_.evaluate();
  (void)evaluator_.evaluate();
  EXPECT_EQ(evaluator_.evaluation_count(), start + 2);
}

TEST(Evaluator, RejectsNullModel) {
  EXPECT_THROW(Evaluator(nullptr, Utility::performance()),
               std::invalid_argument);
}

}  // namespace
}  // namespace magus::core
