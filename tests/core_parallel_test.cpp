// ParallelEvaluator and search-driver determinism: scoring a candidate
// batch must give the same doubles as serial evaluation, and every driver
// must return an identical SearchResult for any thread count.
#include <gtest/gtest.h>

#include <vector>

#include "core/brute_force.h"
#include "core/joint_search.h"
#include "core/naive_search.h"
#include "core/parallel_evaluator.h"
#include "core/planner.h"
#include "core/power_search.h"
#include "core/tilt_search.h"
#include "test_helpers.h"

namespace magus::core {
namespace {

using magus::testing::LineWorld;

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_TRUE(a.config == b.config);
  EXPECT_EQ(a.utility, b.utility);  // bit-identical, not just near
  EXPECT_EQ(a.accepted_steps, b.accepted_steps);
  EXPECT_EQ(a.candidate_evaluations, b.candidate_evaluations);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].sector, b.trace[i].sector);
    EXPECT_EQ(a.trace[i].power_delta_db, b.trace[i].power_delta_db);
    EXPECT_EQ(a.trace[i].tilt_delta, b.trace[i].tilt_delta);
    EXPECT_EQ(a.trace[i].utility_after, b.trace[i].utility_after);
  }
}

TEST(ParallelEvaluatorTest, RejectsNullModel) {
  EXPECT_THROW(ParallelEvaluator(nullptr, Utility::performance()),
               std::invalid_argument);
}

TEST(ParallelEvaluatorTest, ScoreMatchesSerialEvaluation) {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();

  CandidateBatch batch;
  batch.push_back(Candidate::single(Mutation::power(world.west, 44.0)));
  batch.push_back(Candidate::single(Mutation::power(world.east, 30.0)));
  batch.push_back(Candidate::single(Mutation::tilt_to(world.west, -1)));
  batch.push_back(Candidate::single(Mutation::active_state(world.east, false)));
  Candidate multi;
  multi.mutations.push_back(Mutation::power(world.west, 42.0));
  multi.mutations.push_back(Mutation::tilt_to(world.east, 1));
  batch.push_back(multi);

  // Serial reference: apply each candidate on the model, evaluate, restore.
  Evaluator serial{&model, Utility::performance()};
  const auto base = model.snapshot();
  const double base_utility = serial.evaluate();
  std::vector<double> expected;
  for (const Candidate& c : batch) {
    apply_candidate(model, c);
    expected.push_back(serial.evaluate());
    model.restore(base);
  }

  // With the serial evaluator's scratch as the caller's (the planner's
  // wiring), serial and worker-0 evaluations share one CQI memo and every
  // double stays the same.
  for (const bool shared : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ParallelEvaluator parallel{&model, Utility::performance(), threads,
                                 shared ? &serial.scratch() : nullptr};
      const std::vector<double> scores = parallel.score(batch);
      ASSERT_EQ(scores.size(), expected.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(scores[i], expected[i])
            << "threads " << threads << " shared " << shared
            << " candidate " << i;
      }
      // The model's own state is untouched by scoring.
      EXPECT_TRUE(model.configuration() == base.config);
      EXPECT_EQ(parallel.evaluate(), base_utility);
      EXPECT_EQ(serial.evaluate(), base_utility);
    }
  }
  // Worker 0 evaluates on the caller's scratch.
  EvalScratch caller;
  ParallelEvaluator parallel{&model, Utility::performance(), 2, &caller};
  EXPECT_EQ(parallel.evaluate(), base_utility);
  EXPECT_TRUE(caller.cqi_memo.valid);
}

TEST(ParallelEvaluatorTest, EvaluationCountAggregatesAcrossWorkers) {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();
  ParallelEvaluator parallel{&model, Utility::performance(), 4};

  EXPECT_EQ(parallel.evaluation_count(), 0);
  (void)parallel.evaluate();
  EXPECT_EQ(parallel.evaluation_count(), 1);

  CandidateBatch batch;
  for (double p = 30.0; p < 43.0; p += 1.0) {
    batch.push_back(Candidate::single(Mutation::power(world.west, p)));
  }
  (void)parallel.score(batch);
  EXPECT_EQ(parallel.evaluation_count(),
            1 + static_cast<long>(batch.size()));
}

TEST(ParallelEvaluatorTest, EmptyBatch) {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();
  ParallelEvaluator parallel{&model, Utility::performance(), 2};
  EXPECT_TRUE(parallel.score({}).empty());
  EXPECT_EQ(parallel.evaluation_count(), 0);
}

/// Runs one driver at a given thread count on a fresh line world at
/// C_upgrade (east sector down) and returns its result.
template <typename RunFn>
SearchResult run_driver(std::size_t threads, const RunFn& run) {
  LineWorld world{10, 9.0};
  model::AnalysisModel model{&world.network, world.provider.get()};
  model.freeze_uniform_ue_density();
  const std::vector<double> baseline = capture_rates(model);
  model.set_active(world.east, false);
  ParallelEvaluator evaluator{&model, Utility::performance(), threads};
  const std::vector<net::SectorId> involved = {world.west};
  return run(evaluator, involved, baseline, world);
}

TEST(ParallelSearchDeterminism, PowerSearchIdenticalForAnyThreadCount) {
  const auto run = [](ParallelEvaluator& e,
                      const std::vector<net::SectorId>& involved,
                      const std::vector<double>& baseline, LineWorld&) {
    return PowerSearch{}.run(e, involved, baseline);
  };
  const SearchResult reference = run_driver(1, run);
  EXPECT_GT(reference.accepted_steps, 0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(reference, run_driver(threads, run));
    // Repeated run at the same thread count: also identical.
    expect_identical(reference, run_driver(threads, run));
  }
}

TEST(ParallelSearchDeterminism, TiltSearchIdenticalForAnyThreadCount) {
  const auto run = [](ParallelEvaluator& e,
                      const std::vector<net::SectorId>& involved,
                      const std::vector<double>&, LineWorld&) {
    TiltSearchOptions options;
    options.allow_downtilt = true;  // exercise both ladder directions
    return TiltSearch{options}.run(e, involved);
  };
  const SearchResult reference = run_driver(1, run);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(reference, run_driver(threads, run));
    expect_identical(reference, run_driver(threads, run));
  }
}

TEST(ParallelSearchDeterminism, NaiveSearchIdenticalForAnyThreadCount) {
  const auto run = [](ParallelEvaluator& e,
                      const std::vector<net::SectorId>& involved,
                      const std::vector<double>&, LineWorld&) {
    return NaiveSearch{}.run(e, involved);
  };
  // (The naive greedy may legitimately accept zero steps here — a single
  // 1 dB move doesn't flip any CQI in this world; determinism is what's
  // under test.)
  const SearchResult reference = run_driver(1, run);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(reference, run_driver(threads, run));
    expect_identical(reference, run_driver(threads, run));
  }
}

TEST(ParallelSearchDeterminism, JointSearchIdenticalForAnyThreadCount) {
  const auto run = [](ParallelEvaluator& e,
                      const std::vector<net::SectorId>& involved,
                      const std::vector<double>& baseline, LineWorld&) {
    return JointSearch{}.run(e, involved, baseline);
  };
  const SearchResult reference = run_driver(1, run);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(reference, run_driver(threads, run));
    expect_identical(reference, run_driver(threads, run));
  }
}

TEST(ParallelSearchDeterminism, BruteForceIdenticalForAnyThreadCount) {
  const auto run = [](ParallelEvaluator& e,
                      const std::vector<net::SectorId>&,
                      const std::vector<double>&, LineWorld& world) {
    BruteForceAxis axis;
    axis.sector = world.west;
    for (double p = 20.0; p <= 46.0; p += 1.0) {
      axis.power_levels_dbm.push_back(p);
    }
    axis.tilt_indices = {-1, 0, 1};
    return BruteForceSearch{}.run(e, std::span{&axis, 1});
  };
  const SearchResult reference = run_driver(1, run);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    expect_identical(reference, run_driver(threads, run));
  }
}

TEST(ParallelSearchDeterminism, PlannerIdenticalForAnyThreadCount) {
  const auto plan_with = [](std::size_t threads) {
    LineWorld world{10, 9.0};
    model::AnalysisModel model{&world.network, world.provider.get()};
    Evaluator evaluator{&model, Utility::performance()};
    PlannerOptions options;
    options.threads = threads;
    MagusPlanner planner{&evaluator, options};
    const std::vector<net::SectorId> targets = {world.east};
    return planner.plan_upgrade(targets);
  };
  const MitigationPlan reference = plan_with(1);
  for (const std::size_t threads : {2u, 8u}) {
    const MitigationPlan plan = plan_with(threads);
    EXPECT_TRUE(plan.search.config == reference.search.config);
    EXPECT_EQ(plan.f_before, reference.f_before);
    EXPECT_EQ(plan.f_upgrade, reference.f_upgrade);
    EXPECT_EQ(plan.f_after, reference.f_after);
    EXPECT_EQ(plan.recovery, reference.recovery);
    EXPECT_EQ(plan.search.candidate_evaluations,
              reference.search.candidate_evaluations);
  }
}

// Heavier determinism check on a generated market: the lazily-built
// path-loss cache (BuildingProvider) is hit concurrently by tilt
// candidates, which is exactly the shared-state path the TSan pass guards.
TEST(ParallelSearchDeterminism, GeneratedMarketJointIdenticalThreads) {
  const auto run_with = [](std::size_t threads) {
    data::Experiment experiment{magus::testing::small_market_params()};
    model::AnalysisModel& model = experiment.model();
    model.freeze_uniform_ue_density();
    const std::vector<double> baseline = capture_rates(model);
    const net::SectorId target = experiment.network().nearest_sectors(
        experiment.study_area().center(), 1)[0];
    const std::vector<net::SectorId> targets = {target};
    const auto involved =
        experiment.network().neighbors_of(targets, 3'000.0);
    model.set_active(target, false);
    ParallelEvaluator evaluator{&model, Utility::performance(), threads};
    return JointSearch{}.run(evaluator, involved, baseline);
  };
  const SearchResult reference = run_with(1);
  expect_identical(reference, run_with(4));
}

}  // namespace
}  // namespace magus::core
