// The memoized CQI pass (model::CqiMemo): a cell keeps its previous CQI only
// inside a proven SINR margin, so the memoized kernel must agree bitwise
// with libm (cell_cqi) and with a fresh scratch on every input — SINRs
// walked across every threshold and the service floor, serving-power
// changes that leave the denominator alone, a changed floor or cell count,
// degenerate denominators and serverless cells — and the margins it stores
// must stay below the exact distance less the slack.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "lte/amc.h"
#include "model/kernels.h"
#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/simd.h"
#include "util/units.h"

namespace magus::model {
namespace {

constexpr auto K = static_cast<std::size_t>(util::simd::kWidth);
constexpr std::size_t kSectors = 3;
/// The kernel's slack (2G), restated as the contract the margins must meet.
constexpr double kSlackDb = 2e-6;

/// A grid whose cells are all served (sector c % kSectors) with noise 0 and
/// best_mw 0, so a cell's SINR denominator is its total_mw.
struct MemoGrid {
  GridState state;
  std::vector<double> density;

  explicit MemoGrid(std::size_t cells) : state(cells), density(cells) {
    for (std::size_t c = 0; c < cells; ++c) {
      state.best[c] = static_cast<net::SectorId>(c % kSectors);
      density[c] = 1.0 + 0.5 * static_cast<double>(c % 4);
    }
  }
  void set_all(float rp, double denom) {
    for (std::size_t c = 0; c < state.cells(); ++c) set(c, rp, denom);
  }
  void set(std::size_t c, float rp, double denom) {
    state.best_rp_dbm[c] = rp;
    state.total_mw[c] = denom;
  }
};

/// Runs the memoized kernel and returns "" when every cell's CQI equals
/// cell_cqi's and every load equals the cell-order sum, else the first
/// difference.
[[nodiscard]] std::string memo_sweep_mismatch(const GridState& state,
                                              const std::vector<double>& density,
                                              double floor_db, CqiMemo& memo) {
  std::vector<double> loads(kSectors, -1.0);
  cqi_and_loads_kernel(state, density, 0.0, floor_db, memo, loads);
  std::vector<double> expect_loads(kSectors, 0.0);
  std::ostringstream out;
  for (std::size_t c = 0; c < state.cells(); ++c) {
    const lte::Cqi expect =
        cell_cqi(state.best[c], state.best_rp_dbm[c], state.best_mw[c],
                 state.total_mw[c], 0.0, floor_db);
    if (memo.cqi[c] != static_cast<std::int8_t>(expect)) {
      out << "cell " << c << ": memo " << int{memo.cqi[c]} << ", libm "
          << expect << " (rp " << state.best_rp_dbm[c] << ", d "
          << state.total_mw[c] << ")";
      return out.str();
    }
    if (expect > 0 && density[c] > 0.0) {
      expect_loads[static_cast<std::size_t>(state.best[c])] += density[c];
    }
  }
  for (std::size_t s = 0; s < kSectors; ++s) {
    if (loads[s] != expect_loads[s]) {
      out << "load of sector " << s << ": " << loads[s] << " vs "
          << expect_loads[s];
      return out.str();
    }
  }
  return "";
}

[[nodiscard]] double denom_for_sinr(float rp, double sinr_db) {
  return std::pow(10.0, (static_cast<double>(rp) - sinr_db) / 10.0);
}

[[nodiscard]] std::vector<double> targets_for(double floor_db) {
  const auto& thresholds = lte::cqi_sinr_thresholds_db();
  std::vector<double> targets(thresholds.begin(), thresholds.end());
  targets.push_back(floor_db);
  return targets;
}

// A cell starts delta dB on one side of a threshold (or the floor) and its
// denominator walks across it: coarse steps, steps of delta / 1000 just
// past it (where a bound constant 1% low would still pass the screen),
// steps of 1e-8 dB around it (where a margin without its slack would pass
// on the float storage of d) and ulp by ulp. The starting denominator is
// picked so its float copy lies 0.99 * 2^-25 closer to the crossing than
// itself, the worst case the slack has to cover. Every step is compared
// with libm.
TEST(CqiMemo, WalkAcrossEveryThresholdAndTheFloorMatchesLibm) {
  const std::size_t cells = 2 * K + 1;  // two chunks, and a tail if K > 1
  for (const double floor_db : {-6.7, -6.0}) {
    for (const double target : targets_for(floor_db)) {
      for (const float rp : {-60.0f, 20.0f}) {
        for (const int side : {1, -1}) {
          for (const double delta : {1e-2, 3e-6}) {
            // SINR(r) = target + side * r: r > 0 before the crossing.
            const auto denom_at = [&](double r) {
              return denom_for_sinr(rp, target + side * r);
            };
            // side +1 walks d upwards, so the float copy of the start
            // must round up (and down for side -1).
            const auto start_float = static_cast<float>(denom_at(delta));
            const double start = static_cast<double>(start_float) *
                                 (1.0 - side * 0.99 * 0x1p-25);
            ASSERT_EQ(static_cast<float>(start), start_float);

            std::vector<std::vector<double>> walks(3);
            for (int k = 1; k <= 9; ++k) {
              walks[0].push_back(denom_at(delta * (1.0 - k / 10.0)));
            }
            for (int j = -3; j <= 15; ++j) {
              walks[0].push_back(denom_at(-delta * j * 1e-3));
            }
            for (int j = 30; j >= -30; --j) {
              walks[1].push_back(denom_at(j * 1e-8));
            }
            double d = denom_at(0.0);
            for (int k = 0; k < 64; ++k) d = std::nextafter(d, -side * 1e300);
            for (int k = 0; k < 128; ++k) {
              walks[2].push_back(d);
              d = std::nextafter(d, side * 1e300);
            }

            for (std::size_t w = 0; w < walks.size(); ++w) {
              MemoGrid grid{cells};
              grid.set_all(rp, start);
              CqiMemo memo;
              ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density,
                                            floor_db, memo),
                        "");
              for (std::size_t step = 0; step < walks[w].size(); ++step) {
                grid.set_all(rp, walks[w][step]);
                ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density,
                                              floor_db, memo),
                          "")
                    << "floor " << floor_db << " target " << target
                    << " rp " << rp << " side " << side << " delta "
                    << delta << " walk " << w << " step " << step;
              }
            }
          }
        }
      }
    }
  }
}

// Changing a cell's serving power moves rp and best_mw together, which
// leaves the denominator d where it was: only the rp check can tell.
TEST(CqiMemo, ServingPowerChangeWithTheSameDenominatorReclassifies) {
  const std::size_t cells = 8 * K + 3;
  MemoGrid grid{cells};
  for (std::size_t c = 0; c < cells; ++c) {
    grid.set(c, -70.0f, denom_for_sinr(-70.0f, -4.0 + 1.3 * c));
  }
  CqiMemo memo;
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "");
  const std::vector<std::int8_t> before = memo.cqi;
  for (const float step : {1.0f, -2.0f, 0.5f}) {
    for (std::size_t c = 0; c < cells; ++c) {
      grid.state.best_rp_dbm[c] += step;
    }
    ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "")
        << "rp step " << step;
  }
  EXPECT_NE(memo.cqi, before);  // the steps did change classes
}

// The floor is part of the memo's key: cells between two floors change
// class when the floor does, with every denominator unchanged.
TEST(CqiMemo, FloorChangeReclassifiesEveryCell) {
  const std::size_t cells = 4 * K;
  MemoGrid grid{cells};
  for (std::size_t c = 0; c < cells; ++c) {
    grid.set(c, -80.0f, denom_for_sinr(-80.0f, -5.5 + 0.2 * c));
  }
  CqiMemo memo;
  for (const double floor_db : {-6.0, 0.0, -6.0, -6.7}) {
    ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, floor_db, memo),
              "")
        << "floor " << floor_db;
  }
  // Served under -6 dB, all of them are out of service under 0 dB.
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, 0.0, memo), "");
  for (std::size_t c = 0; c < cells && -5.5 + 0.2 * c < -0.5; ++c) {
    EXPECT_EQ(memo.cqi[c], 0) << c;
  }
}

// One memo over grids of different sizes: a changed cell count
// re-classifies everything (and reads no entry past the end).
TEST(CqiMemo, CellCountChangeReclassifiesEveryCell) {
  CqiMemo memo;
  for (const std::size_t cells : {5 * K + 1, 3 * K, 9 * K + 2, 3 * K}) {
    MemoGrid grid{cells};
    for (std::size_t c = 0; c < cells; ++c) {
      grid.set(c, -75.0f, denom_for_sinr(-75.0f, 0.7 * cells - 1.1 * c));
    }
    ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "")
        << cells << " cells";
    ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "")
        << cells << " cells, warm";
  }
}

// Denominators the screen cannot bound (0, subnormal, +inf, NaN, doubles
// whose float copy is subnormal or infinite) and serverless cells get a
// margin of 0; sequences into, out of and between them stay exact.
TEST(CqiMemo, DegenerateDenominatorsAndServerlessCellsAreNeverReused) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> degenerate = {
      0.0, std::numeric_limits<double>::denorm_min(), 1e-310, kInf, kNaN,
      1e-39, 1e39};
  const double normal = denom_for_sinr(-60.0f, 7.3);
  for (const double bad : degenerate) {
    const std::size_t cells = 2 * K + 1;
    MemoGrid grid{cells};
    grid.set_all(-60.0f, bad);
    // The second chunk's first lane is serverless, with a finite rp.
    grid.state.best[K] = net::kInvalidSector;
    CqiMemo memo;
    for (const double d : {bad, bad, normal, normal, bad, normal, bad}) {
      for (std::size_t c = 0; c < cells; ++c) grid.state.total_mw[c] = d;
      ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo),
                "")
          << "bad " << bad << " d " << d;
      if (!(d == normal)) {
        for (std::size_t c = 0; c < 2 * K; ++c) {
          EXPECT_EQ(memo.margin_db[c], 0.0f) << "bad " << bad << " c " << c;
        }
      }
      EXPECT_EQ(memo.margin_db[K], 0.0f) << "serverless, d " << d;
    }
  }
}

// White box: every stored margin is 0 or a float no larger than the exact
// (libm) SINR's distance to the nearest threshold or the floor less the
// slack; most ordinary cells do get one.
TEST(CqiMemo, StoredMarginsStayBelowTheExactDistanceLessSlack) {
  std::mt19937_64 rng{2024};
  std::uniform_real_distribution<double> sinr_of{-12.0, 35.0};
  std::uniform_real_distribution<float> rp_of{-110.0f, -40.0f};
  const std::size_t cells = 64 * K + 3;
  MemoGrid grid{cells};
  for (std::size_t c = 0; c < cells; ++c) {
    const float rp = rp_of(rng);
    grid.set(c, rp, denom_for_sinr(rp, sinr_of(rng)));
  }
  // A few cells placed just outside the guard band of a threshold.
  const auto& thresholds = lte::cqi_sinr_thresholds_db();
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    for (const double offset : {-3.5e-6, 2.5e-6, 1e-4}) {
      grid.set(t * 3 + (offset > 0 ? 1 : 0), -70.0f,
               denom_for_sinr(-70.0f, thresholds[t] + offset));
    }
  }
  for (const double floor_db : {-6.7, -3.25}) {
    CqiMemo memo;
    ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, floor_db, memo),
              "");
    std::size_t with_margin = 0;
    const std::size_t screened = cells - cells % K;
    for (std::size_t c = 0; c < screened; ++c) {
      const double sinr =
          static_cast<double>(grid.state.best_rp_dbm[c]) -
          util::mw_to_dbm(grid.state.total_mw[c]);
      double distance = std::abs(sinr - floor_db);
      for (const double t : thresholds) {
        distance = std::min(distance, std::abs(sinr - t));
      }
      const float margin = memo.margin_db[c];
      EXPECT_LE(static_cast<double>(margin),
                std::max(0.0, distance - kSlackDb) + 1e-10)
          << "cell " << c << " sinr " << sinr;
      if (margin > 0.0f) ++with_margin;
    }
    EXPECT_GT(with_margin, screened * 9 / 10);
  }
}

// model.kernel.cqi_memo_cells counts the cells whose class the memo kept:
// none on a cold sweep, every screened cell (all but the scalar tail) on
// an unchanged re-sweep, and none of a chunk one of whose lanes moved.
TEST(CqiMemo, MemoCounterCountsReusedCells) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& memo_cells = registry.counter("model.kernel.cqi_memo_cells");
  obs::Counter& all_cells = registry.counter("model.kernel.cqi_cells");
  const std::size_t cells = 6 * K + 1;
  const std::size_t screened = cells - cells % K;
  MemoGrid grid{cells};
  for (std::size_t c = 0; c < cells; ++c) {
    grid.set(c, -65.0f, denom_for_sinr(-65.0f, 3.1 + 0.37 * c));
  }
  CqiMemo memo;
  std::uint64_t before = memo_cells.value();
  const std::uint64_t all_before = all_cells.value();
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "");
  EXPECT_EQ(memo_cells.value() - before, 0u);
  EXPECT_EQ(all_cells.value() - all_before, cells);

  before = memo_cells.value();
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "");
  EXPECT_EQ(memo_cells.value() - before, screened);

  // Move cell 0 across a whole CQI step: its chunk is re-classified.
  grid.state.total_mw[0] *= 10.0;
  before = memo_cells.value();
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "");
  EXPECT_EQ(memo_cells.value() - before, screened - K);

  // clear() drops every entry.
  memo.clear();
  before = memo_cells.value();
  ASSERT_EQ(memo_sweep_mismatch(grid.state, grid.density, -6.7, memo), "");
  EXPECT_EQ(memo_cells.value() - before, 0u);
}

}  // namespace
}  // namespace magus::model

namespace magus::core {
namespace {

/// The utility, CQIs and loads of a warm scratch vs a fresh one.
void expect_warm_equals_fresh(const model::EvalContext& context,
                              const Utility& utility, EvalScratch& warm,
                              const std::string& what) {
  EvalScratch fresh;
  const double expect = evaluate_utility(context, utility, fresh);
  EXPECT_EQ(evaluate_utility(context, utility, warm), expect) << what;
  EXPECT_EQ(warm.cqi_memo.cqi, fresh.cqi_memo.cqi) << what;
  EXPECT_EQ(warm.load, fresh.load) << what;
}

// Random power, tilt, outage and restore steps on a generated market, with
// one warm scratch alternating between the driver model and a clone that
// evolves separately (as a planner's caller-thread scratch does between
// serial evaluations and batch candidates).
TEST(CqiMemoEvaluation, MutationSequencesMatchAFreshScratch) {
  data::Experiment experiment{magus::testing::small_market_params()};
  model::AnalysisModel& model = experiment.model();
  model.freeze_uniform_ue_density();
  model::EvalContext clone{model};
  const model::EvalContext::Snapshot base = model.snapshot();
  const Utility utility = Utility::performance();
  const auto sectors =
      static_cast<std::uint32_t>(model.network().sector_count());

  std::mt19937_64 rng{77};
  EvalScratch warm;
  expect_warm_equals_fresh(model, utility, warm, "cold");
  for (int step = 0; step < 60; ++step) {
    model::EvalContext& target = step % 3 == 2 ? clone : model;
    const auto s = static_cast<net::SectorId>(rng() % sectors);
    const net::SectorSetting& setting = target.configuration()[s];
    std::string what = "step " + std::to_string(step) + ": ";
    switch (rng() % 5) {
      case 0:
      case 1: {
        const double delta = rng() % 2 ? 1.0 : -1.0;
        target.set_power(s, setting.power_dbm + delta);
        what += "power " + std::to_string(s);
        break;
      }
      case 2:
        target.set_tilt(s, setting.tilt + (rng() % 2 ? 1 : -1));
        what += "tilt " + std::to_string(s);
        break;
      case 3:
        target.set_active(s, !setting.active);
        what += "outage " + std::to_string(s);
        break;
      default:
        target.restore(base);
        what += "restore";
        break;
    }
    expect_warm_equals_fresh(target, utility, warm, what);
  }
}

// One scratch over models of different cell counts and service floors:
// the memo's key makes each switch a full re-classification.
TEST(CqiMemoEvaluation, ScratchReuseAcrossModelsWithOtherCellsAndFloors) {
  using magus::testing::LineWorld;
  LineWorld small{10, 9.0};
  LineWorld large{17, 6.0};
  model::ModelOptions strict;
  strict.min_service_sinr_db = 10.3;  // the CQI-9 threshold
  model::AnalysisModel a{&small.network, small.provider.get()};
  model::AnalysisModel b{&large.network, large.provider.get()};
  model::AnalysisModel c{&small.network, small.provider.get(), strict};
  for (model::AnalysisModel* m : {&a, &b, &c}) m->freeze_uniform_ue_density();

  const Utility utility = Utility::performance();
  EvalScratch warm;
  int round = 0;
  for (model::AnalysisModel* m : {&a, &b, &a, &c, &a, &c, &b}) {
    expect_warm_equals_fresh(*m, utility, warm,
                             "round " + std::to_string(round++));
  }
  // The strict floor really changes classes on this geometry.
  EvalScratch sa, sc;
  (void)evaluate_utility(a, utility, sa);
  (void)evaluate_utility(c, utility, sc);
  EXPECT_NE(sa.cqi_memo.cqi, sc.cqi_memo.cqi);
}

}  // namespace
}  // namespace magus::core
