// The coverage index stored in the path-loss file: save() writes it, a
// cold mapped open binds it zero-copy, and the bound arrays equal both the
// library's build and the test oracle (the sector-major build it replaced)
// byte for byte, under mmap and the MAGUS_NO_MMAP positioned-read
// fallback. Every fallback — a file without the section, a section over
// another sector list, a provider decorator that does not forward it —
// builds instead and plans identically.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/planner.h"
#include "model/analysis_model.h"
#include "model/coverage_index.h"
#include "obs/metrics.h"
#include "pathloss/mapped_database.h"
#include "coverage_index_oracle.h"
#include "test_helpers.h"

namespace magus::model {
namespace {

using magus::testing::OracleIndex;

[[nodiscard]] std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

template <typename T>
void expect_same_bytes(std::span<const T> actual,
                       const std::vector<T>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  if (expected.empty()) return;
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                           expected.size() * sizeof(T)))
      << label;
}

void expect_equals_oracle(const CoverageIndex& index,
                          const OracleIndex& oracle,
                          const std::string& label) {
  const pathloss::format::IndexSection& a = index.arrays();
  expect_same_bytes(a.row_start, oracle.row_start, label + " row_start");
  expect_same_bytes(a.entry_sector, oracle.entry_sector,
                    label + " entry_sector");
  expect_same_bytes(a.gain, oracle.gain, label + " gain");
  expect_same_bytes(a.linear, oracle.linear, label + " linear");
  expect_same_bytes(a.ranked_sector, oracle.ranked_sector,
                    label + " ranked_sector");
  expect_same_bytes(a.ranked_col, oracle.ranked_col, label + " ranked_col");
  expect_same_bytes(a.ranked_bound, oracle.ranked_bound,
                    label + " ranked_bound");
  EXPECT_EQ(index.index_bytes(), oracle.bytes()) << label;
}

/// Sets MAGUS_NO_MMAP=1 for its lifetime when `on`.
class ScopedNoMmap {
 public:
  explicit ScopedNoMmap(bool on) : on_(on) {
    if (on_) ::setenv("MAGUS_NO_MMAP", "1", 1);
  }
  ~ScopedNoMmap() {
    if (on_) ::unsetenv("MAGUS_NO_MMAP");
  }
  ScopedNoMmap(const ScopedNoMmap&) = delete;
  ScopedNoMmap& operator=(const ScopedNoMmap&) = delete;

 private:
  bool on_;
};

[[nodiscard]] std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "/magus_index_store_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag + ".v3";
}

/// Saves every sector's tilt 0 and 1 footprints; tilt 1 entries are not
/// indexed, so the section is built over a subset of the file.
void save_market(data::Experiment& experiment, const std::string& path) {
  pathloss::PathLossDatabase db{experiment.grid()};
  for (const net::Sector& sector : experiment.network().sectors()) {
    for (const radio::TiltIndex tilt : {0, 1}) {
      db.insert(sector.id, tilt,
                experiment.provider().footprint(sector.id, tilt));
    }
  }
  db.save(path);
}

/// A decorator that forwards footprint() and grid() only, like a timing
/// wrapper: it hides the stored section.
class ForwardingProvider final : public pathloss::PathLossProvider {
 public:
  explicit ForwardingProvider(pathloss::PathLossProvider* inner)
      : inner_(inner) {}
  [[nodiscard]] const pathloss::SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override {
    return inner_->footprint(sector, tilt);
  }
  [[nodiscard]] const geo::GridMap& grid() const override {
    return inner_->grid();
  }

 private:
  pathloss::PathLossProvider* inner_;
};

TEST(CoverageIndexStore, BoundSectionEqualsTheOracleOnGeneratedMarkets) {
  for (const data::Morphology morphology :
       {data::Morphology::kRural, data::Morphology::kSuburban,
        data::Morphology::kUrban}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const std::string market =
          std::string{data::morphology_name(morphology)} + " seed " +
          std::to_string(seed);
      data::Experiment experiment{
          magus::testing::small_market_params(morphology, seed)};
      const OracleIndex oracle =
          magus::testing::oracle_build(experiment.network(),
                                       experiment.provider());
      const CoverageIndex built =
          CoverageIndex::build(experiment.network(), experiment.provider());
      EXPECT_FALSE(built.bound());
      expect_equals_oracle(built, oracle, market + " build");

      const std::string path = temp_path(std::to_string(seed));
      save_market(experiment, path);
      for (const bool no_mmap : {false, true}) {
        const std::string label =
            market + (no_mmap ? " no-mmap bind" : " mmap bind");
        const ScopedNoMmap env{no_mmap};
        pathloss::MappedPathLossDatabase db{path};
        EXPECT_EQ(db.using_mmap(), !no_mmap) << label;
        AnalysisModel model{&experiment.network(), &db};
        model.market_context().build_coverage_index();
        const CoverageIndex* bound = model.market_context().coverage_index();
        ASSERT_NE(bound, nullptr) << label;
        EXPECT_TRUE(bound->bound()) << label;
        expect_equals_oracle(*bound, oracle, label);
        EXPECT_EQ(model.market_context().index_bytes(), built.index_bytes())
            << label;
      }
      std::filesystem::remove(path);
    }
  }
}

TEST(CoverageIndexStore, ColdOpBindsOnceAndBuildsNothing) {
  // The cold-open prefix of an upgrade: mapped open, model construction,
  // then build_coverage_index() with no argument.
  data::Experiment experiment{magus::testing::small_market_params()};
  const std::string path = temp_path("cold");
  save_market(experiment, path);

  const std::uint64_t binds = counter("model.index.binds");
  const std::uint64_t builds = counter("model.index.builds");
  const std::uint64_t checks = counter("pathloss.mmap.index_checks");
  pathloss::MappedPathLossDatabase db{path};
  AnalysisModel model{&experiment.network(), &db};
  model.market_context().build_coverage_index();
  EXPECT_EQ(counter("model.index.binds"), binds + 1);
  EXPECT_EQ(counter("model.index.builds"), builds);
  EXPECT_EQ(counter("pathloss.mmap.index_checks"), checks + 1);

  // The section is checked once per open, however often it is bound.
  model.market_context().build_coverage_index();
  EXPECT_EQ(counter("model.index.binds"), binds + 2);
  EXPECT_EQ(counter("pathloss.mmap.index_checks"), checks + 1);
  std::filesystem::remove(path);
}

/// What a plan decides, compared exactly.
struct PlanSummary {
  net::Configuration c_before;
  net::Configuration c_after;
  double f_after = 0.0;
  double recovery = 0.0;
  long evaluations = 0;
  std::vector<net::Configuration> steps;

  bool operator==(const PlanSummary&) const = default;
};

/// Plans the upgrade of the sector nearest the study centre on `provider`
/// and reports whether the coverage index was bound or built.
[[nodiscard]] PlanSummary plan_on(data::Experiment& experiment,
                                  pathloss::PathLossProvider& provider,
                                  bool expect_bound) {
  AnalysisModel model{&experiment.network(), &provider};
  core::Evaluator evaluator{&model, core::Utility::performance()};
  core::PlannerOptions options;
  options.mode = core::TuningMode::kPower;
  options.threads = 1;
  options.max_neighbors = 6;
  options.polish_max_steps = 4;
  const std::vector<net::SectorId> targets =
      experiment.network().nearest_sectors(experiment.study_area().center(),
                                           1);
  const std::uint64_t binds = counter("model.index.binds");
  const std::uint64_t builds = counter("model.index.builds");
  const core::MitigationPlan plan =
      core::MagusPlanner{&evaluator, options}.plan_upgrade(targets);
  EXPECT_EQ(counter("model.index.binds"), binds + (expect_bound ? 1 : 0));
  EXPECT_EQ(counter("model.index.builds"), builds + (expect_bound ? 0 : 1));
  const CoverageIndex* index = model.market_context().coverage_index();
  EXPECT_TRUE(index != nullptr && index->bound() == expect_bound);

  PlanSummary summary{plan.c_before, plan.search.config,
                      plan.f_after,  plan.recovery,
                      plan.search.candidate_evaluations, {}};
  for (const auto& step : plan.gradual.steps) {
    summary.steps.push_back(step.config);
  }
  return summary;
}

TEST(CoverageIndexStore, FallbacksBuildAndPlanIdentically) {
  data::Experiment experiment{magus::testing::small_market_params()};
  const std::string path = temp_path("full");
  save_market(experiment, path);
  pathloss::MappedPathLossDatabase db{path};
  ASSERT_NE(db.coverage_section(), nullptr);
  const PlanSummary bound = plan_on(experiment, db, true);
  EXPECT_GT(bound.evaluations, 0);

  // 1. A file without the section, as written before it existed: cut the
  //    file after its last plane and point payload_end there.
  const std::string old_path = temp_path("old");
  {
    std::filesystem::copy_file(
        path, old_path, std::filesystem::copy_options::overwrite_existing);
    std::size_t file_bytes = 0;
    const std::uint64_t planes_end =
        pathloss::format::read_v3(old_path, file_bytes).planes_end;
    std::filesystem::resize_file(old_path, planes_end);
    std::fstream file(old_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(pathloss::format::kHeaderPrefixBytes + 8);
    file.write(reinterpret_cast<const char*>(&planes_end), sizeof planes_end);
  }
  pathloss::MappedPathLossDatabase old_db{old_path};
  EXPECT_EQ(old_db.coverage_section(), nullptr);
  EXPECT_EQ(plan_on(experiment, old_db, false), bound);

  // 2. A section over another sector list: the file holds one more
  //    tilt-0 sector than the network, so the index is built.
  const std::string extra_path = temp_path("extra");
  {
    pathloss::PathLossDatabase extra = pathloss::PathLossDatabase::load(path);
    const auto extra_id =
        static_cast<net::SectorId>(experiment.network().sector_count());
    extra.insert(extra_id, 0, extra.footprint(0, 0));
    extra.save(extra_path);
  }
  pathloss::MappedPathLossDatabase extra_db{extra_path};
  ASSERT_NE(extra_db.coverage_section(), nullptr);
  EXPECT_EQ(extra_db.coverage_section()->sectors.size(),
            experiment.network().sector_count() + 1);
  EXPECT_EQ(plan_on(experiment, extra_db, false), bound);

  // 3. A decorator forwarding only footprint()/grid() hides the section.
  ForwardingProvider forwarding{&db};
  EXPECT_EQ(forwarding.coverage_section(), nullptr);
  EXPECT_EQ(plan_on(experiment, forwarding, false), bound);

  // 4. The in-memory provider the file was written from builds too.
  EXPECT_EQ(experiment.provider().coverage_section(), nullptr);
  EXPECT_EQ(plan_on(experiment, experiment.provider(), false), bound);

  for (const std::string& p : {path, old_path, extra_path}) {
    std::filesystem::remove(p);
  }
}

TEST(CoverageIndexStore, SaveWithoutTiltZeroWritesNoSection) {
  data::Experiment experiment{magus::testing::small_market_params()};
  pathloss::PathLossDatabase db{experiment.grid()};
  db.insert(0, 1, experiment.provider().footprint(0, 1));
  const std::string path = temp_path("tilt1");
  db.save(path);
  const auto probe = pathloss::PathLossDatabase::probe(path);
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.index_section_bytes, 0u);
  pathloss::MappedPathLossDatabase mapped{path};
  EXPECT_EQ(mapped.coverage_section(), nullptr);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace magus::model
