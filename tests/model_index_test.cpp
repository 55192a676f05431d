// Coverage-index correctness: the CSR inverted index must be an exact
// transposition of the per-sector default-tilt footprints
// (entry-for-entry), the ranked layout an exact permutation of each row,
// and the index-backed eval paths bit-identical to the legacy all-sector
// probes on arbitrary mutation sequences — including the off-index tilt
// fallback and cells no sector covers at all.
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
using magus::testing::LineWorld;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// Index-vs-legacy comparisons are exact: both paths form every float and
/// double with the same expressions in the same order, so any mismatch is
/// a divergence bug, not tolerance.
void expect_states_bitwise_equal(const EvalContext& indexed,
                                 const EvalContext& legacy,
                                 const std::string& label) {
  const GridState& a = indexed.state();
  const GridState& b = legacy.state();
  ASSERT_EQ(a.cells(), b.cells()) << label;
  for (std::size_t i = 0; i < a.cells(); ++i) {
    EXPECT_EQ(a.best[i], b.best[i]) << label << " cell " << i;
    EXPECT_EQ(a.best_rp_dbm[i], b.best_rp_dbm[i]) << label << " cell " << i;
    EXPECT_EQ(a.best_mw[i], b.best_mw[i]) << label << " cell " << i;
    EXPECT_EQ(a.second[i], b.second[i]) << label << " cell " << i;
    EXPECT_EQ(a.second_rp_dbm[i], b.second_rp_dbm[i])
        << label << " cell " << i;
    EXPECT_EQ(a.total_mw[i], b.total_mw[i]) << label << " cell " << i;
  }
}

TEST(CoverageIndex, CsrMatchesFootprintsEntryForEntry) {
  LineWorld world{12, 8.0};
  const CoverageIndex index =
      CoverageIndex::build(world.network, *world.provider);

  ASSERT_EQ(index.cell_count(), 12);
  EXPECT_GT(index.entry_count(), 0u);
  EXPECT_GT(index.index_bytes(), 0u);
  EXPECT_TRUE(CoverageIndex::tilt_indexed(CoverageIndex::kTilt));
  EXPECT_FALSE(CoverageIndex::tilt_indexed(CoverageIndex::kTilt + 1));

  // Every row lists its covering sectors in strictly ascending id order
  // (the property the bit-identity argument rests on), and no entry is
  // NaN: every entry is a cell its sector covers.
  for (geo::GridIndex g = 0; g < index.cell_count(); ++g) {
    const CoverageIndex::Row row = index.row(g);
    for (std::uint32_t k = 0; k < row.size; ++k) {
      EXPECT_FALSE(std::isnan(index.gains()[row.first + k])) << "cell " << g;
      if (k > 0) {
        EXPECT_LT(row.sectors[k - 1], row.sectors[k]) << "cell " << g;
      }
    }
  }

  std::size_t covered = 0;
  for (const net::SectorId s : {world.west, world.east}) {
    const auto& fp = world.provider->footprint(s, CoverageIndex::kTilt);
    covered += fp.covered_count();

    // Forward: every covered cell of the footprint appears in the cell's
    // span with the exact same dB and linear values.
    fp.for_each_covered_linear([&](geo::GridIndex g, float gain_db,
                                   float gain_linear) {
      const CoverageIndex::Row row = index.row(g);
      const auto* end = row.sectors + row.size;
      const auto* it = std::lower_bound(row.sectors, end, s);
      ASSERT_TRUE(it != end && *it == s)
          << "sector " << s << " missing from cell " << g;
      const auto e = row.first + static_cast<std::uint32_t>(it - row.sectors);
      EXPECT_EQ(index.gains()[e], gain_db) << "cell " << g;
      EXPECT_EQ(index.linear()[e], gain_linear) << "cell " << g;
    });

    // Converse: every entry for this sector is a cell the footprint really
    // covers, with the same gain.
    for (geo::GridIndex g = 0; g < index.cell_count(); ++g) {
      const CoverageIndex::Row row = index.row(g);
      for (std::uint32_t k = 0; k < row.size; ++k) {
        if (row.sectors[k] != s) continue;
        ASSERT_TRUE(fp.covers(g)) << "cell " << g;
        EXPECT_EQ(index.gains()[row.first + k], fp.gain_db(g));
      }
    }
  }
  EXPECT_EQ(index.entry_count(), covered);
}

/// Every ranked row must be a permutation of its CSR row in descending
/// bound order, ascending sector id on exact ties, each bound the entry's
/// own gain.
void expect_ranked_rows_in_bound_order(const CoverageIndex& index) {
  for (geo::GridIndex g = 0; g < index.cell_count(); ++g) {
    const CoverageIndex::Row row = index.row(g);
    const CoverageIndex::RankedRow ranked = index.ranked_row(g);
    ASSERT_EQ(ranked.size, row.size);

    std::vector<net::SectorId> csr(row.sectors, row.sectors + row.size);
    std::vector<net::SectorId> perm(ranked.sectors,
                                    ranked.sectors + ranked.size);
    std::sort(perm.begin(), perm.end());
    EXPECT_EQ(perm, csr) << "cell " << g << ": not a permutation";

    for (std::uint32_t k = 0; k < ranked.size; ++k) {
      // cols[k] is the global entry offset of the same sector's CSR slot.
      ASSERT_GE(ranked.cols[k], row.first);
      ASSERT_LT(ranked.cols[k], row.first + row.size);
      EXPECT_EQ(row.sectors[ranked.cols[k] - row.first], ranked.sectors[k]);

      // bounds[k] is the entry's own gain.
      EXPECT_EQ(ranked.bounds[k], index.gains()[ranked.cols[k]])
          << "cell " << g;

      if (k > 0) {
        // Descending bound; ascending sector id on exact ties.
        EXPECT_GE(ranked.bounds[k - 1], ranked.bounds[k]) << "cell " << g;
        if (ranked.bounds[k - 1] == ranked.bounds[k]) {
          EXPECT_LT(ranked.sectors[k - 1], ranked.sectors[k]) << "cell " << g;
        }
      }
    }
  }
}

TEST(CoverageIndex, RankedRowsArePermutationsInDescendingBoundOrder) {
  LineWorld world{12, 8.0};
  expect_ranked_rows_in_bound_order(
      CoverageIndex::build(world.network, *world.provider));

  data::Experiment experiment{magus::testing::small_market_params()};
  expect_ranked_rows_in_bound_order(CoverageIndex::build(
      experiment.network(), experiment.model().market_context().provider()));
}

TEST(CoverageIndex, RankedRowsBreakExactTiesBySectorId) {
  // Four sectors over three cells. Cell 0: +0 and -0 dB, which compare
  // equal; cell 1: one gain for all; cell 2: a tie below a distinct best.
  geo::GridMap grid{geo::Rect{{0.0, 0.0}, {300.0, 100.0}}, 100.0};
  FakeProvider provider{grid};
  net::Network network;
  net::Sector sector;
  sector.antenna.min_tilt_index = 0;
  sector.antenna.max_tilt_index = 0;
  const std::vector<std::vector<float>> gains = {{0.0f, -70.0f, -80.0f},
                                                 {-0.0f, -70.0f, -60.0f},
                                                 {0.0f, -70.0f, -70.0f},
                                                 {-0.0f, -70.0f, -60.0f}};
  for (int s = 0; s < 4; ++s) {
    sector.site = s;
    sector.position = {50.0 + 50.0 * s, 50.0};
    const net::SectorId id = network.add_sector(sector);
    provider.set_footprint(id, 0, gains[static_cast<std::size_t>(s)]);
  }
  const CoverageIndex index = CoverageIndex::build(network, provider);
  const auto order = [&](geo::GridIndex g) {
    const CoverageIndex::RankedRow ranked = index.ranked_row(g);
    return std::vector<net::SectorId>(ranked.sectors,
                                      ranked.sectors + ranked.size);
  };
  EXPECT_EQ(order(0), (std::vector<net::SectorId>{0, 1, 2, 3}));
  EXPECT_EQ(order(1), (std::vector<net::SectorId>{0, 1, 2, 3}));
  EXPECT_EQ(order(2), (std::vector<net::SectorId>{1, 3, 2, 0}));
  expect_ranked_rows_in_bound_order(index);
}

/// Cells the bound context re-ranked over a script: in all, and through
/// the off-index footprint fallback. The rest went through the pure index
/// path (the batched ranked scan).
struct Reranks {
  std::uint64_t cells = 0;
  std::uint64_t offindex = 0;
};

/// Drives a bound and an unbound context over `model`'s market through a
/// seeded mix of power, tilt (drawn from `tilts`), activity and
/// set_configuration steps on `sectors`, comparing the two states bitwise
/// after every step. Both contexts run the same sector-major full rebuild,
/// so the comparison covers the bound incremental paths (span scan,
/// off-index fallback) against the unbound all-sectors scan. Each
/// set_configuration step jumps both to a configuration visited earlier in
/// the sequence, so the bound context's off-index list and mirrors must be
/// rebuilt, not carried over. The market's index must already be built.
Reranks run_randomized_index_vs_legacy(
    AnalysisModel& model, const std::vector<net::SectorId>& sectors,
    const std::vector<int>& tilts, const std::string& world) {
  obs::Counter& cells = obs::MetricsRegistry::global().counter(
      "model.kernel.recompute_cells");
  obs::Counter& offindex = obs::MetricsRegistry::global().counter(
      "model.kernel.offindex_recomputes");
  Reranks reranks;
  for (const std::uint64_t seed : {11ull, 123ull, 777ull}) {
    EvalContext indexed{&model.market_context()};
    indexed.bind_coverage_index();
    EvalContext legacy{&model.market_context()};
    EXPECT_TRUE(indexed.coverage_index_bound());
    EXPECT_FALSE(legacy.coverage_index_bound());
    // Applies one step to both contexts, counting only the bound one's
    // re-ranks.
    const auto both = [&](auto&& op) {
      const std::uint64_t cells_before = cells.value();
      const std::uint64_t offindex_before = offindex.value();
      op(indexed);
      reranks.cells += cells.value() - cells_before;
      reranks.offindex += offindex.value() - offindex_before;
      op(legacy);
    };

    std::mt19937_64 rng{seed};
    std::uniform_int_distribution<int> op_dist{0, 3};
    std::uniform_int_distribution<int> sector_dist{
        0, static_cast<int>(sectors.size()) - 1};
    std::uniform_real_distribution<double> power_dist{18.0, 48.0};
    std::uniform_int_distribution<std::size_t> tilt_dist{0,
                                                         tilts.size() - 1};

    const std::string tag = world + " seed " + std::to_string(seed);
    std::vector<net::Configuration> visited;
    for (int step = 0; step < 80; ++step) {
      visited.push_back(indexed.configuration());
      const net::SectorId sector =
          sectors[static_cast<std::size_t>(sector_dist(rng))];
      switch (op_dist(rng)) {
        case 0: {
          const double p = power_dist(rng);
          both([&](EvalContext& c) { c.set_power(sector, p); });
          break;
        }
        case 1: {
          const int t = tilts[tilt_dist(rng)];
          both([&](EvalContext& c) { c.set_tilt(sector, t); });
          break;
        }
        case 2: {
          const bool active = !indexed.configuration()[sector].active;
          both([&](EvalContext& c) { c.set_active(sector, active); });
          break;
        }
        default: {
          std::uniform_int_distribution<std::size_t> pick{
              0, visited.size() - 1};
          const net::Configuration earlier = visited[pick(rng)];
          both([&](EvalContext& c) { c.set_configuration(earlier); });
          break;
        }
      }
      expect_states_bitwise_equal(
          indexed, legacy, tag + " step " + std::to_string(step));
    }
  }
  return reranks;
}

/// Every tilt from -2 to 2: the indexed tilt 0 and the off-index rest.
const std::vector<int> kMixedTilts = {-2, -1, 0, 1, 2};
/// Every tilt from -2 to 2 but the indexed one.
const std::vector<int> kOffIndexTilts = {-2, -1, 1, 2};

/// The randomized script on the two-sector LineWorld strip.
Reranks run_randomized_line_world(const std::vector<int>& tilts,
                                  const std::string& label) {
  LineWorld world{12, 8.0};
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().build_coverage_index();
  return run_randomized_index_vs_legacy(model, {world.west, world.east},
                                        tilts, "line world " + label);
}

TEST(CoverageIndex, RandomizedMutationsMatchLegacyBitForBit) {
  // Tilt moves both leave the indexed tilt and come back to it, so the
  // bound context re-ranks through the batched span scan and through the
  // footprint fallback.
  const Reranks reranks = run_randomized_line_world(kMixedTilts, "mixed");
  EXPECT_GT(reranks.offindex, 0u);
  EXPECT_GT(reranks.cells - reranks.offindex, 0u);
}

TEST(CoverageIndex, OffIndexTiltsFallBackToFootprintsBitForBit) {
  // Every tilt move pushes a sector off-index, so recompute must merge the
  // span scan with direct footprint probes; only activity flips and jumps
  // back to an earlier configuration return a sector to the index.
  const Reranks reranks =
      run_randomized_line_world(kOffIndexTilts, "off-index");
  EXPECT_GT(reranks.offindex, 0u);
}

TEST(CoverageIndex, GeneratedMarketMixedMutationsMatchLegacy) {
  // The same randomized script on a generated market, over the six
  // sectors nearest the study centre: overlapping footprints, co-sited
  // sectors and cells at the grid edge that the strip never produces.
  // The mixed tilt draw keeps some tilt moves on the indexed tilt; the
  // off-index draw sends every one of them through the footprint
  // fallback.
  data::Experiment experiment{magus::testing::small_market_params()};
  AnalysisModel& model = experiment.model();
  const auto sectors = experiment.network().nearest_sectors(
      experiment.study_area().center(), 6);
  ASSERT_EQ(sectors.size(), 6u);
  model.market_context().build_coverage_index();
  const Reranks mixed = run_randomized_index_vs_legacy(
      model, sectors, kMixedTilts, "generated market mixed");
  EXPECT_GT(mixed.offindex, 0u);
  EXPECT_GT(mixed.cells - mixed.offindex, 0u);
  const Reranks off = run_randomized_index_vs_legacy(
      model, sectors, kOffIndexTilts, "generated market off-index");
  EXPECT_GT(off.offindex, 0u);
}

/// Two sectors on a 6-cell strip with a dead cell in the middle and
/// coverage touching both grid edges: cell 2 is covered by nobody, cell 0
/// and cell 5 only by one sector each.
struct GappyWorld {
  net::Network network;
  std::unique_ptr<FakeProvider> provider;
  net::SectorId west = 0;
  net::SectorId east = 1;

  GappyWorld() {
    geo::GridMap grid{geo::Rect{{0.0, 0.0}, {600.0, 100.0}}, 100.0};
    provider = std::make_unique<FakeProvider>(grid);

    net::Sector sector;
    sector.site = 0;
    sector.position = {0.0, 50.0};
    sector.default_power_dbm = 40.0;
    sector.min_power_dbm = 20.0;
    sector.max_power_dbm = 46.0;
    sector.antenna.min_tilt_index = 0;
    sector.antenna.max_tilt_index = 0;
    west = network.add_sector(sector);
    sector.site = 1;
    sector.position = {600.0, 50.0};
    east = network.add_sector(sector);

    provider->set_footprint(west, 0,
                            {-70.0f, -80.0f, kNaN, kNaN, kNaN, kNaN});
    provider->set_footprint(east, 0,
                            {kNaN, kNaN, kNaN, -85.0f, -75.0f, -65.0f});
    network.set_subscribers(west, 10.0);
    network.set_subscribers(east, 10.0);
  }
};

TEST(CoverageIndex, EmptyCoverageAndEdgeOfGridCells) {
  GappyWorld world;
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().ensure_coverage_index();
  const CoverageIndex& index = *model.market_context().coverage_index();

  // The dead cell has an empty span; the edge cells list exactly their
  // single covering sector.
  EXPECT_EQ(index.row(2).size, 0u);
  EXPECT_EQ(index.ranked_row(2).size, 0u);
  ASSERT_EQ(index.row(0).size, 1u);
  EXPECT_EQ(index.row(0).sectors[0], world.west);
  ASSERT_EQ(index.row(5).size, 1u);
  EXPECT_EQ(index.row(5).sectors[0], world.east);

  EvalContext indexed{&model.market_context()};
  indexed.bind_coverage_index();
  EvalContext legacy{&model.market_context()};

  EXPECT_EQ(indexed.serving_sector(2), net::kInvalidSector);
  EXPECT_EQ(indexed.state().best_rp_dbm[2], kNoSignalDbm);
  expect_states_bitwise_equal(indexed, legacy, "initial");

  // Demoting the only server of the edge cells drives their recompute
  // through an all-miss span scan; the cells must end up serverless, and
  // still bit-identical to the legacy probe.
  indexed.set_active(world.west, false);
  legacy.set_active(world.west, false);
  EXPECT_EQ(indexed.serving_sector(0), net::kInvalidSector);
  EXPECT_EQ(indexed.state().best_mw[0], 0.0);
  expect_states_bitwise_equal(indexed, legacy, "west down");

  indexed.set_active(world.west, true);
  legacy.set_active(world.west, true);
  expect_states_bitwise_equal(indexed, legacy, "west back up");
}

TEST(CoverageIndex, OffIndexSectorListTracksActivityTiltAndRestore) {
  // Only the default tilt is indexed, so every tilt move takes a sector
  // off-index. Several sectors sit off-index at once, one of them is
  // switched off while off-index, and restore() jumps between snapshots
  // whose off-index sets differ; recompute's footprint fallback must match
  // the legacy all-sectors probe bit-for-bit after every step.
  data::Experiment experiment{magus::testing::small_market_params()};
  AnalysisModel& model = experiment.model();
  model.freeze_uniform_ue_density();
  model.market_context().build_coverage_index();

  EvalContext indexed{&model.market_context()};
  indexed.bind_coverage_index();
  EvalContext legacy{&model.market_context()};
  obs::Counter& fallbacks = obs::MetricsRegistry::global().counter(
      "model.kernel.offindex_recomputes");
  const std::uint64_t fallbacks_before = fallbacks.value();

  const auto sectors = experiment.network().nearest_sectors(
      experiment.study_area().center(), 4);
  ASSERT_EQ(sectors.size(), 4u);
  const auto tilt_of = [&](net::SectorId s) {
    return indexed.configuration()[s].tilt;
  };
  const auto move_off = [&](net::SectorId s) {
    const net::Sector& meta = experiment.network().sector(s);
    const int tilt = tilt_of(s);
    const int next = meta.clamp_tilt(tilt + 1) != tilt ? tilt + 1 : tilt - 1;
    indexed.set_tilt(s, next);
    legacy.set_tilt(s, next);
    ASSERT_FALSE(CoverageIndex::tilt_indexed(tilt_of(s)));
    expect_states_bitwise_equal(indexed, legacy,
                                "off-index " + std::to_string(s));
  };
  const auto both = [&](const std::string& label, auto&& op) {
    op(indexed);
    op(legacy);
    expect_states_bitwise_equal(indexed, legacy, label);
  };
  const auto default_tilt = [&](net::SectorId s) {
    return model.configuration()[s].tilt;
  };

  // Three sectors off-index at once, then power cuts on and around them
  // (set_power's demotion path re-ranks through the fallback too).
  for (int k = 0; k < 3; ++k) move_off(sectors[static_cast<std::size_t>(k)]);
  for (const net::SectorId s : sectors) {
    const double power = indexed.configuration()[s].power_dbm - 6.0;
    both("power cut " + std::to_string(s),
         [&](EvalContext& c) { c.set_power(s, power); });
  }
  const EvalContext::Snapshot three_off_indexed = indexed.snapshot();
  const EvalContext::Snapshot three_off_legacy = legacy.snapshot();

  // Switch one off-index sector off: it leaves the list while its own
  // demoted cells re-rank, and stays out after.
  both("off-index sector down", [&](EvalContext& c) {
    c.set_active(sectors[1], false);
  });
  // A different off-index set: sector 0 back on its indexed tilt,
  // sector 3 off-index, sector 1 still down.
  both("sector 0 back on-index", [&](EvalContext& c) {
    c.set_tilt(sectors[0], default_tilt(sectors[0]));
  });
  move_off(sectors[3]);
  const EvalContext::Snapshot mixed_indexed = indexed.snapshot();
  const EvalContext::Snapshot mixed_legacy = legacy.snapshot();

  for (int round = 0; round < 2; ++round) {
    const std::string tag = " round " + std::to_string(round);
    indexed.restore(three_off_indexed);
    legacy.restore(three_off_legacy);
    expect_states_bitwise_equal(indexed, legacy, "restore three-off" + tag);
    // Demote an on-index sector: every re-ranked cell merges the span scan
    // with the three off-index footprints.
    both("on-index sector down" + tag, [&](EvalContext& c) {
      c.set_active(sectors[3], false);
    });
    indexed.restore(mixed_indexed);
    legacy.restore(mixed_legacy);
    expect_states_bitwise_equal(indexed, legacy, "restore mixed" + tag);
    both("off-index sector down" + tag, [&](EvalContext& c) {
      c.set_active(sectors[2], false);
    });
    both("down sector back up" + tag, [&](EvalContext& c) {
      c.set_active(sectors[1], true);
    });
  }
  EXPECT_GT(fallbacks.value(), fallbacks_before);
}

TEST(CoverageIndex, GeneratedMarketDemotionsMatchLegacy) {
  // A realistic multi-sector market: take the busiest sectors down and
  // back up, the exact workload the ranked early-exit scan optimizes.
  data::Experiment experiment{magus::testing::small_market_params()};
  AnalysisModel& model = experiment.model();
  model.freeze_uniform_ue_density();
  model.market_context().ensure_coverage_index();
  EXPECT_GT(model.market_context().index_bytes(), 0u);

  EvalContext indexed{&model.market_context()};
  indexed.bind_coverage_index();
  EvalContext legacy{&model.market_context()};

  const auto targets = experiment.network().nearest_sectors(
      experiment.study_area().center(), 3);
  for (const net::SectorId s : targets) {
    indexed.set_active(s, false);
    legacy.set_active(s, false);
    expect_states_bitwise_equal(indexed, legacy,
                                "down " + std::to_string(s));
    indexed.set_active(s, true);
    legacy.set_active(s, true);
    expect_states_bitwise_equal(indexed, legacy,
                                "up " + std::to_string(s));
  }
}

}  // namespace
}  // namespace magus::model
