// Shared-index concurrency: one CoverageIndex is built on the driver
// thread and then read concurrently by per-thread EvalContexts — the
// contract ParallelEvaluator relies on. Run under ThreadSanitizer (the
// tsan preset builds this binary) to prove the index really is immutable
// during evaluation; the bitwise comparison against a serial reference
// proves the concurrent reads also compute the same answer.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "model/analysis_model.h"
#include "model/eval_context.h"
#include "test_helpers.h"

namespace magus::model {
namespace {

using magus::testing::LineWorld;

/// The mutation script every context (serial and concurrent) replays.
/// Thread-dependent only through `salt` so different workers stress
/// different interleavings of index reads.
void replay(EvalContext& ctx, const LineWorld& world, int salt) {
  ctx.set_power(world.west, 30.0 + salt);
  ctx.set_tilt(world.east, -1);
  ctx.set_active(world.west, false);
  ctx.set_power(world.east, 45.0 - salt);
  ctx.set_active(world.west, true);
  ctx.set_tilt(world.east, 1);
  ctx.set_power(world.west, 44.0);
}

void expect_bitwise_equal(const GridState& a, const GridState& b,
                          const std::string& label) {
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

TEST(CoverageIndexParallel, ConcurrentContextsMatchSerialReference) {
  constexpr int kThreads = 8;
  LineWorld world{12, 8.0};
  AnalysisModel model{&world.network, world.provider.get()};
  model.market_context().ensure_coverage_index();

  // Warm every footprint the script touches: provider.footprint() is
  // internally synchronized, but pre-materializing keeps the hot section
  // purely read-only the way ParallelEvaluator sets it up.
  for (const net::SectorId s : {world.west, world.east}) {
    for (const int tilt : {-1, 0, 1}) {
      model.market_context().provider().footprint(
          s, static_cast<radio::TiltIndex>(tilt));
    }
  }

  // Serial references, one per salt.
  std::vector<GridState> reference;
  reference.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    EvalContext serial{&model.market_context()};
    serial.bind_coverage_index();
    replay(serial, world, t % 3);
    reference.push_back(serial.state());
  }

  std::vector<GridState> concurrent(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      EvalContext ctx{&model.market_context()};
      ctx.bind_coverage_index();
      replay(ctx, world, t % 3);
      concurrent[static_cast<std::size_t>(t)] = ctx.state();
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    expect_bitwise_equal(concurrent[static_cast<std::size_t>(t)],
                         reference[static_cast<std::size_t>(t)],
                         "thread " + std::to_string(t));
  }
}

}  // namespace
}  // namespace magus::model
