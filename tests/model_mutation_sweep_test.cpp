// Mutation-sweep identity: every incremental set_power / set_tilt /
// set_active / restore step must leave an EvalContext in the state a full
// rebuild at the same configuration produces, and the fused tilt swap must
// equal the remove → re-rank → add path it replaced bit for bit.
//
// Three contexts walk one seeded script over a small grid of overlapping
// sectors: a context bound to the coverage index, an unbound one, and a
// bound "three-step" twin that applies each tilt change of an active
// sector as set_active(false), set_tilt, set_active(true) — the old path,
// with its arithmetic max(0, t − old_mw) then + new_mw. After every step:
//  - bound vs unbound and bound vs three-step: every GridState field
//    bitwise, total_mw included (all three run the same sums);
//  - bound vs a fresh rebuild: the top-2 fields and best_mw bitwise, and
//    total_mw to a tight relative tolerance (a rebuild sums the
//    contributions in another order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "model/analysis_model.h"
#include "model/coverage_index.h"
#include "model/eval_context.h"
#include "obs/metrics.h"
#include "test_helpers.h"

namespace magus::model {
namespace {

using magus::testing::FakeProvider;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr int kTiltLo = -2;
constexpr int kTiltHi = 2;

/// `sectors` sectors over a cols x rows grid. Every (sector, tilt) has its
/// own random window — widths from one cell to the full grid, so the row
/// sweeps see every SIMD tail residue — with holes inside it. Gains are
/// whole dB and powers are drawn from whole dB values, so two sectors
/// often reach a cell at bit-equal received power and the sector-id
/// tie-break decides. Sector 0's tilt +2 window sits in the corner
/// opposite its tilt 0 window, so that swap has disjoint windows.
struct GridWorld {
  net::Network network;
  std::unique_ptr<FakeProvider> provider;
  std::int32_t cols;
  std::int32_t rows;

  GridWorld(std::uint64_t seed, std::int32_t grid_cols, std::int32_t grid_rows,
            int sectors)
      : cols(grid_cols), rows(grid_rows) {
    geo::GridMap grid{
        geo::Rect{{0.0, 0.0}, {cols * 100.0, rows * 100.0}}, 100.0};
    provider = std::make_unique<FakeProvider>(grid);
    std::mt19937_64 rng{seed};
    for (int s = 0; s < sectors; ++s) {
      net::Sector sector;
      sector.site = s;
      sector.position = {50.0 + 100.0 * (s % cols), 50.0};
      sector.default_power_dbm = 40.0;
      sector.min_power_dbm = 30.0;
      sector.max_power_dbm = 46.0;
      sector.antenna.min_tilt_index = kTiltLo;
      sector.antenna.max_tilt_index = kTiltHi;
      const net::SectorId id = network.add_sector(sector);
      network.set_subscribers(id, 10.0);
      for (int tilt = kTiltLo; tilt <= kTiltHi; ++tilt) {
        provider->set_footprint(id, tilt, random_plane(rng, id, tilt));
      }
    }
  }

  std::vector<float> random_plane(std::mt19937_64& rng, net::SectorId id,
                                  int tilt) const {
    std::uniform_int_distribution<std::int32_t> col{0, cols - 1};
    std::uniform_int_distribution<std::int32_t> row{0, rows - 1};
    std::int32_t c0 = col(rng);
    std::int32_t c1 = col(rng);
    std::int32_t r0 = row(rng);
    std::int32_t r1 = row(rng);
    if (c0 > c1) std::swap(c0, c1);
    if (r0 > r1) std::swap(r0, r1);
    if (id == 0 && tilt == 0) {
      c0 = r0 = 0;
      c1 = cols / 3;
      r1 = rows / 3;
    } else if (id == 0 && tilt == kTiltHi) {
      c0 = cols - cols / 3;
      r0 = rows - rows / 3;
      c1 = cols - 1;
      r1 = rows - 1;
    }
    std::uniform_real_distribution<double> u{0.0, 1.0};
    std::uniform_int_distribution<int> gain{-110, -75};
    std::vector<float> plane(static_cast<std::size_t>(cols) * rows, kNaN);
    for (std::int32_t r = r0; r <= r1; ++r) {
      for (std::int32_t c = c0; c <= c1; ++c) {
        if (u(rng) < 0.15) continue;  // a hole inside the window
        plane[static_cast<std::size_t>(r) * cols + c] =
            static_cast<float>(gain(rng));
      }
    }
    return plane;
  }
};

void expect_bitwise_equal(const EvalContext& a_ctx, const EvalContext& b_ctx,
                          const std::string& label) {
  const GridState& a = a_ctx.state();
  const GridState& b = b_ctx.state();
  ASSERT_EQ(a.cells(), b.cells()) << label;
  for (std::size_t i = 0; i < a.cells(); ++i) {
    ASSERT_EQ(a.best[i], b.best[i]) << label << " cell " << i;
    ASSERT_EQ(a.best_rp_dbm[i], b.best_rp_dbm[i]) << label << " cell " << i;
    ASSERT_EQ(a.best_mw[i], b.best_mw[i]) << label << " cell " << i;
    ASSERT_EQ(a.second[i], b.second[i]) << label << " cell " << i;
    ASSERT_EQ(a.second_rp_dbm[i], b.second_rp_dbm[i])
        << label << " cell " << i;
    ASSERT_EQ(a.total_mw[i], b.total_mw[i]) << label << " cell " << i;
  }
}

void expect_matches_rebuild(const EvalContext& incremental,
                            const std::string& label) {
  EvalContext rebuilt{&incremental.market()};
  rebuilt.set_configuration(incremental.configuration());
  const GridState& a = incremental.state();
  const GridState& b = rebuilt.state();
  ASSERT_EQ(a.cells(), b.cells()) << label;
  for (std::size_t i = 0; i < a.cells(); ++i) {
    ASSERT_EQ(a.best[i], b.best[i]) << label << " cell " << i;
    ASSERT_EQ(a.best_rp_dbm[i], b.best_rp_dbm[i]) << label << " cell " << i;
    ASSERT_EQ(a.best_mw[i], b.best_mw[i]) << label << " cell " << i;
    ASSERT_EQ(a.second[i], b.second[i]) << label << " cell " << i;
    ASSERT_EQ(a.second_rp_dbm[i], b.second_rp_dbm[i])
        << label << " cell " << i;
    // Every gain here is >= -110 dB at <= 46 dBm, so a cell's total never
    // exceeds a few sectors' worth of 1e-6 mW; the drift of repeated
    // add/subtract is a few ulp of that.
    ASSERT_NEAR(a.total_mw[i], b.total_mw[i], 1e-16 + 1e-12 * b.total_mw[i])
        << label << " cell " << i;
  }
}

/// Tally of where a tilted or re-powered sector sat in the cells its
/// window covers before the step, summed over a script: the script must
/// reach every rule of the sweeps.
struct RuleTally {
  std::size_t best = 0;
  std::size_t second = 0;
  std::size_t neither = 0;
};

void tally(const EvalContext& ctx, net::SectorId sector, RuleTally& t) {
  const GridState& s = ctx.state();
  for (std::size_t i = 0; i < s.cells(); ++i) {
    if (s.best[i] == sector) {
      ++t.best;
    } else if (s.second[i] == sector) {
      ++t.second;
    } else if (s.best[i] != net::kInvalidSector) {
      ++t.neither;
    }
  }
}

/// Runs the seeded script over `world`. The index holds tilt 0 only, so
/// every other tilt takes a sector off the index.
void run_script(GridWorld& world, std::uint64_t seed, int steps,
                RuleTally& tallied) {
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().build_coverage_index();
  EvalContext bound{&model.market_context()};
  bound.bind_coverage_index();
  EvalContext unbound{&model.market_context()};
  EvalContext three_step{&model.market_context()};
  three_step.bind_coverage_index();

  const int sectors = static_cast<int>(world.network.sector_count());
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<int> op{0, 9};
  std::uniform_int_distribution<int> pick_sector{0, sectors - 1};
  // Whole-dB powers (ties), plus requests the clamp turns into no-ops or
  // into the range limits.
  const std::vector<double> powers = {20.0, 30.0, 33.0, 36.0, 40.0,
                                      43.0, 46.0, 50.0};
  std::uniform_int_distribution<std::size_t> pick_power{0, powers.size() - 1};
  std::uniform_int_distribution<int> pick_tilt{kTiltLo - 1, kTiltHi + 1};

  std::vector<EvalContext::Snapshot> bound_snaps;
  std::vector<EvalContext::Snapshot> unbound_snaps;
  std::vector<EvalContext::Snapshot> three_snaps;
  const std::string tag = "seed " + std::to_string(seed);
  for (int step = 0; step < steps; ++step) {
    const auto sector = static_cast<net::SectorId>(pick_sector(rng));
    const int kind = op(rng);
    std::string what;
    if (kind < 4) {
      const double p = powers[pick_power(rng)];
      tally(bound, sector, tallied);
      bound.set_power(sector, p);
      unbound.set_power(sector, p);
      three_step.set_power(sector, p);
      what = "power " + std::to_string(p);
    } else if (kind < 8) {
      const int t = pick_tilt(rng);
      tally(bound, sector, tallied);
      bound.set_tilt(sector, t);
      unbound.set_tilt(sector, t);
      if (three_step.configuration()[sector].active &&
          world.network.sector(sector).clamp_tilt(t) !=
              three_step.configuration()[sector].tilt) {
        three_step.set_active(sector, false);
        three_step.set_tilt(sector, t);
        three_step.set_active(sector, true);
      } else {
        three_step.set_tilt(sector, t);
      }
      what = "tilt " + std::to_string(t);
    } else if (kind == 8) {
      const bool active = !bound.configuration()[sector].active;
      bound.set_active(sector, active);
      unbound.set_active(sector, active);
      three_step.set_active(sector, active);
      what = active ? "on-air" : "off-air";
    } else if (bound_snaps.empty() || rng() % 2 == 0) {
      bound_snaps.push_back(bound.snapshot());
      unbound_snaps.push_back(unbound.snapshot());
      three_snaps.push_back(three_step.snapshot());
      what = "snapshot";
    } else {
      const std::size_t k = rng() % bound_snaps.size();
      bound.restore(bound_snaps[k]);
      unbound.restore(unbound_snaps[k]);
      three_step.restore(three_snaps[k]);
      what = "restore";
    }
    const std::string label = tag + " step " + std::to_string(step) + " " +
                              what + " sector " + std::to_string(sector);
    ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(bound, unbound, label));
    ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(bound, three_step, label));
    ASSERT_NO_FATAL_FAILURE(expect_matches_rebuild(bound, label));
  }
}

TEST(MutationSweep, RandomScriptsMatchRebuildAndTheThreeStepTilt) {
  RuleTally tallied;
  // Only bound contexts count off-index re-ranks: the scripts must reach
  // the footprint fallback, not only the span scan.
  obs::Counter& offindex = obs::MetricsRegistry::global().counter(
      "model.kernel.offindex_recomputes");
  const std::uint64_t offindex_before = offindex.value();
  for (const std::uint64_t seed : {3ull, 41ull, 977ull}) {
    // 13 columns: row segments of every length mod the lane width.
    GridWorld world{seed, 13, 7, 5};
    for (const std::uint64_t script : {seed * 10 + 1, seed * 10}) {
      ASSERT_NO_FATAL_FAILURE(run_script(world, script, 150, tallied));
    }
  }
  EXPECT_GT(tallied.best, 0u);
  EXPECT_GT(tallied.second, 0u);
  EXPECT_GT(tallied.neither, 0u);
  EXPECT_GT(offindex.value(), offindex_before);
}

TEST(MutationSweep, DisjointAndNestedTiltWindowsMatchTheThreeStepPath) {
  // One sector alone in its corner at tilt 0 and in the opposite corner at
  // tilt +2 (sector 0 of GridWorld), under four others: every tilt swap of
  // it runs remove-only and add-only rows and a gap between two windows.
  GridWorld world{5, 17, 9, 5};
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().build_coverage_index();
  EvalContext bound{&model.market_context()};
  bound.bind_coverage_index();
  EvalContext three_step{&model.market_context()};
  three_step.bind_coverage_index();
  for (const int tilt : {2, 0, 1, 2, -2, 0, -1, 2}) {
    bound.set_tilt(0, tilt);
    three_step.set_active(0, false);
    three_step.set_tilt(0, tilt);
    three_step.set_active(0, true);
    const std::string label = "tilt " + std::to_string(tilt);
    ASSERT_NO_FATAL_FAILURE(expect_bitwise_equal(bound, three_step, label));
    ASSERT_NO_FATAL_FAILURE(expect_matches_rebuild(bound, label));
  }
}

TEST(MutationSweep, TiltReranksOnlyWhereTheSectorLostItsPlace) {
  // A tilt swap re-ranks a cell only when the sector was best or second
  // there and can no longer keep its slot; the three-step path re-ranked
  // every cell where it was best or second. On this script the fused
  // sweep must queue strictly fewer cells than the remove step did.
  GridWorld world{8, 13, 7, 5};
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().build_coverage_index();
  EvalContext ctx{&model.market_context()};
  ctx.bind_coverage_index();
  obs::Counter& reranked = obs::MetricsRegistry::global().counter(
      "model.kernel.recompute_cells");
  std::size_t held = 0;
  const std::uint64_t before = reranked.value();
  for (const int tilt : {1, -1, 2, 0, -2, 1}) {
    for (net::SectorId s = 0; s < 5; ++s) {
      const GridState& state = ctx.state();
      for (std::size_t i = 0; i < state.cells(); ++i) {
        held += state.best[i] == s || state.second[i] == s ? 1 : 0;
      }
      ctx.set_tilt(s, tilt);
    }
  }
  const std::uint64_t queued = reranked.value() - before;
  EXPECT_GT(held, 0u);
  EXPECT_LT(queued, held);
  ASSERT_NO_FATAL_FAILURE(expect_matches_rebuild(ctx, "after the script"));
}

}  // namespace
}  // namespace magus::model
