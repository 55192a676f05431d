// Incremental-vs-rebuild equivalence: any sequence of power/tilt/active
// mutations must leave an EvalContext in the same state a from-scratch
// rebuild at the final configuration produces. Best/second server ids and
// their received powers are bit-identical (set_power forms the new rp with
// the exact expression the rebuild uses); total_mw accumulates FP error
// from the add/subtract updates, so it gets a tight relative tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>

#include "core/evaluator.h"
#include "core/search_types.h"
#include "model/analysis_model.h"
#include "model/eval_context.h"
#include "test_helpers.h"

namespace magus::model {
namespace {

using magus::testing::LineWorld;

void expect_state_matches_rebuild(const EvalContext& incremental,
                                  const std::string& label) {
  // Rebuild from scratch at the same configuration over the same market.
  EvalContext rebuilt{&incremental.market()};
  rebuilt.set_configuration(incremental.configuration());

  // Ceiling context: every sector on-air at its maximum power. Its per-cell
  // total upper-bounds any contribution that was ever added to (and later
  // removed from) the incremental total, which is what the total_mw error
  // actually scales with — a removed dominant server leaves a residual
  // computed by cancellation, so neither the final total nor the current
  // strongest signal bounds the drift.
  const net::Network& network = incremental.market().network();
  net::Configuration ceiling_config = incremental.configuration();
  for (std::size_t s = 0; s < ceiling_config.size(); ++s) {
    const auto id = static_cast<net::SectorId>(s);
    ceiling_config[id].active = true;
    ceiling_config[id].power_dbm = network.sector(id).max_power_dbm;
  }
  EvalContext ceiling{&incremental.market()};
  ceiling.set_configuration(ceiling_config);

  const GridState& a = incremental.state();
  const GridState& b = rebuilt.state();
  ASSERT_EQ(a.cells(), b.cells());
  for (std::size_t i = 0; i < a.cells(); ++i) {
    EXPECT_EQ(a.best[i], b.best[i]) << label << " cell " << i;
    EXPECT_EQ(a.best_rp_dbm[i], b.best_rp_dbm[i]) << label << " cell " << i;
    EXPECT_EQ(a.second[i], b.second[i]) << label << " cell " << i;
    EXPECT_EQ(a.second_rp_dbm[i], b.second_rp_dbm[i])
        << label << " cell " << i;
    // total_mw is maintained by adding/subtracting per-sector mW terms.
    // Each add/subtract contributes rounding error of order
    // eps * contribution, so the accumulated drift scales with the ceiling
    // total, not the final one. 1e-10 relative to the ceiling leaves ~50 dB
    // of headroom over eps for op count and tilt-dependent gain swings
    // while still flagging any lost/duplicated contribution of consequence.
    EXPECT_NEAR(a.total_mw[i], b.total_mw[i],
                1e-10 * ceiling.state().total_mw[i] + 1e-21)
        << label << " cell " << i;
  }
  // Derived quantities agree to the same tolerance.
  for (geo::GridIndex g = 0; g < incremental.cell_count(); ++g) {
    EXPECT_EQ(incremental.serving_sector(g), rebuilt.serving_sector(g));
    EXPECT_EQ(incremental.cqi(g), rebuilt.cqi(g)) << label << " grid " << g;
  }
}

TEST(ModelEquivalence, SingleMutationsMatchRebuild) {
  LineWorld world{10, 9.0};
  AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();

  model.set_power(world.west, 44.0);
  expect_state_matches_rebuild(model, "power up");
  model.set_power(world.west, 25.0);
  expect_state_matches_rebuild(model, "power down");
  model.set_tilt(world.east, -1);
  expect_state_matches_rebuild(model, "uptilt");
  model.set_active(world.west, false);
  expect_state_matches_rebuild(model, "off-air");
  model.set_active(world.west, true);
  expect_state_matches_rebuild(model, "back on-air");
}

TEST(ModelEquivalence, RandomizedMutationSequencesMatchRebuild) {
  for (const std::uint64_t seed : {7ull, 99ull, 2026ull}) {
    LineWorld world{12, 8.0};
    AnalysisModel model{&world.network, world.provider.get()};
    model.freeze_uniform_ue_density();

    std::mt19937_64 rng{seed};
    std::uniform_int_distribution<int> op_dist{0, 2};
    std::uniform_int_distribution<int> sector_dist{0, 1};
    std::uniform_real_distribution<double> power_dist{18.0, 48.0};
    std::uniform_int_distribution<int> tilt_dist{-2, 2};

    for (int step = 0; step < 60; ++step) {
      const auto sector = static_cast<net::SectorId>(sector_dist(rng));
      switch (op_dist(rng)) {
        case 0:
          model.set_power(sector, power_dist(rng));
          break;
        case 1:
          model.set_tilt(sector, tilt_dist(rng));
          break;
        default:
          model.set_active(sector,
                           !model.configuration()[sector].active);
          break;
      }
      if (step % 10 == 9) {
        expect_state_matches_rebuild(
            model, "seed " + std::to_string(seed) + " step " +
                       std::to_string(step));
      }
    }
    expect_state_matches_rebuild(model, "seed " + std::to_string(seed));
  }
}

TEST(ModelEquivalence, SnapshotRestoreRoundTripMidSequence) {
  LineWorld world{10, 9.0};
  AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();

  model.set_power(world.west, 43.0);
  model.set_tilt(world.east, 1);
  const auto snapshot = model.snapshot();
  const GridState saved = model.state();

  model.set_active(world.west, false);
  model.set_tilt(world.east, -1);
  model.set_power(world.east, 21.0);
  model.restore(snapshot);

  EXPECT_TRUE(model.configuration() == snapshot.config);
  const GridState& restored = model.state();
  for (std::size_t i = 0; i < saved.cells(); ++i) {
    EXPECT_EQ(restored.best[i], saved.best[i]);
    EXPECT_EQ(restored.best_rp_dbm[i], saved.best_rp_dbm[i]);
    EXPECT_EQ(restored.second[i], saved.second[i]);
    EXPECT_EQ(restored.second_rp_dbm[i], saved.second_rp_dbm[i]);
    EXPECT_EQ(restored.total_mw[i], saved.total_mw[i]);
  }
  expect_state_matches_rebuild(model, "after restore");
}

TEST(ModelEquivalence, ClonedContextEvolvesIndependently) {
  LineWorld world{10, 9.0};
  AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();
  core::Evaluator evaluator{&model, core::Utility::performance()};
  const double before = evaluator.evaluate();

  EvalContext clone{model};  // slicing copy of the eval half
  clone.set_power(world.west, 46.0);
  clone.set_active(world.east, false);

  // The original is unaffected by the clone's mutations...
  EXPECT_EQ(evaluator.evaluate(), before);
  // ...and the clone itself still matches a rebuild.
  expect_state_matches_rebuild(clone, "clone");
}

TEST(ModelEquivalence, UtilityAgreesWithRebuiltContext) {
  data::Experiment experiment{magus::testing::small_market_params()};
  AnalysisModel& model = experiment.model();
  model.freeze_uniform_ue_density();

  // A short scripted mitigation: outage plus neighbor tuning.
  const net::SectorId target = experiment.network().nearest_sectors(
      experiment.study_area().center(), 1)[0];
  model.set_active(target, false);
  const std::vector<net::SectorId> targets = {target};
  const auto involved = experiment.network().neighbors_of(targets, 2'000.0);
  for (std::size_t i = 0; i < involved.size(); ++i) {
    const net::SectorId s = involved[i];
    model.set_power(s, model.configuration()[s].power_dbm + 2.0);
    if (i % 2 == 0) model.set_tilt(s, model.configuration()[s].tilt - 1);
  }

  EvalContext rebuilt{&model.market_context()};
  rebuilt.set_configuration(model.configuration());

  core::EvalScratch scratch_a, scratch_b;
  const core::Utility utility = core::Utility::performance();
  const double incremental =
      core::evaluate_utility(model, utility, scratch_a);
  const double from_rebuild =
      core::evaluate_utility(rebuilt, utility, scratch_b);
  EXPECT_NEAR(incremental / from_rebuild, 1.0, 1e-9);
}

TEST(ModelEquivalence, WholeGridReadersMatchPerCellAccessors) {
  data::Experiment experiment{magus::testing::small_market_params()};
  AnalysisModel& model = experiment.model();
  model.freeze_uniform_ue_density();
  const net::SectorId target = experiment.network().nearest_sectors(
      experiment.study_area().center(), 1)[0];
  model.set_active(target, false);
  const std::vector<net::SectorId> targets = {target};
  const auto involved = experiment.network().neighbors_of(targets, 2'000.0);
  for (std::size_t i = 0; i < involved.size(); ++i) {
    const net::SectorId s = involved[i];
    model.set_power(s, model.configuration()[s].power_dbm + 1.5);
    if (i % 3 == 0) model.set_tilt(s, model.configuration()[s].tilt + 1);
  }

  const std::vector<net::SectorId> service = model.service_map();
  const std::vector<std::int8_t> cqi = model.cqi_map();
  const std::vector<double> rates = core::capture_rates(model);
  ASSERT_EQ(service.size(), static_cast<std::size_t>(model.cell_count()));
  std::size_t served = 0;
  for (geo::GridIndex g = 0; g < model.cell_count(); ++g) {
    const auto i = static_cast<std::size_t>(g);
    EXPECT_EQ(cqi[i], model.cqi(g)) << "g=" << g;
    EXPECT_EQ(service[i], model.in_service(g) ? model.serving_sector(g)
                                              : net::kInvalidSector)
        << "g=" << g;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rates[i]),
              std::bit_cast<std::uint64_t>(model.rate_bps(g)))
        << "g=" << g;
    served += service[i] != net::kInvalidSector ? 1 : 0;
  }
  EXPECT_GT(served, 0u);
}

}  // namespace
}  // namespace magus::model
