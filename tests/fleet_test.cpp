// Fleet layer: seeded multi-market generation, the byte-budgeted
// MarketStore (LRU, eviction, bit-identical rematerialization) and the
// WavePlanner (per-market plans identical to the single-market path,
// crew-capped wave composition, journaled execution of the carried plans).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "exec/fault_injector.h"
#include "fleet/wave_planner.h"
#include "obs/metrics.h"
#include "pathloss/format.h"
#include "test_helpers.h"
#include "util/checksum.h"

namespace magus::fleet {
namespace {

/// Tiny markets (2 km regions, handfuls of sectors) so materialization
/// stays cheap: these tests exercise the store/planner machinery, not
/// model scale.
[[nodiscard]] data::FleetParams tiny_fleet(std::size_t markets,
                                           std::uint64_t seed = 11) {
  data::FleetParams params;
  params.seed = seed;
  params.markets = markets;
  params.base.region_size_m = 2'000.0;
  params.base.study_size_m = 1'000.0;
  return params;
}

[[nodiscard]] std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

[[nodiscard]] StoreOptions store_options(std::string dir,
                                         std::size_t byte_budget = 0) {
  StoreOptions options;
  options.db_dir = std::move(dir);
  options.byte_budget = byte_budget;
  options.threads = 1;
  return options;
}

TEST(GenerateFleet, MarketsAreIndependentOfFleetSize) {
  const std::vector<data::MarketParams> small =
      data::generate_fleet(tiny_fleet(5));
  const std::vector<data::MarketParams> large =
      data::generate_fleet(tiny_fleet(50));
  ASSERT_EQ(small.size(), 5u);
  ASSERT_EQ(large.size(), 50u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].seed, large[i].seed) << i;
    EXPECT_EQ(small[i].morphology, large[i].morphology) << i;
  }
  // Distinct per-market seeds.
  EXPECT_NE(small[0].seed, small[1].seed);
}

TEST(GenerateFleet, MorphologyMixFollowsFractions) {
  data::FleetParams params = tiny_fleet(300);
  params.urban_fraction = 0.5;
  params.suburban_fraction = 0.3;
  int urban = 0;
  int suburban = 0;
  int rural = 0;
  for (const data::MarketParams& m : data::generate_fleet(params)) {
    switch (m.morphology) {
      case data::Morphology::kUrban: ++urban; break;
      case data::Morphology::kSuburban: ++suburban; break;
      case data::Morphology::kRural: ++rural; break;
    }
  }
  EXPECT_NEAR(urban / 300.0, 0.5, 0.1);
  EXPECT_NEAR(suburban / 300.0, 0.3, 0.1);
  EXPECT_NEAR(rural / 300.0, 0.2, 0.1);
}

TEST(GenerateFleet, RejectsBadFractions) {
  data::FleetParams params = tiny_fleet(3);
  params.urban_fraction = 0.8;
  params.suburban_fraction = 0.3;  // sums past 1
  EXPECT_THROW((void)data::generate_fleet(params), std::invalid_argument);
  params.urban_fraction = -0.1;
  params.suburban_fraction = 0.3;
  EXPECT_THROW((void)data::generate_fleet(params), std::invalid_argument);
}

TEST(MarketStore, MissBuildsThenHitsThenReloadsAcrossStores) {
  const std::string dir = fresh_dir("fleet_store_reload");
  StoreOptions options;
  options.db_dir = dir;
  options.threads = 1;
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));

  MarketStore store{specs, options};
  const auto first = store.acquire(0);
  EXPECT_TRUE(first->rebuilt());  // no database on disk yet
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 0u);

  const auto again = store.acquire(0);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(store.hits(), 1u);
  const std::size_t first_bytes = first->db_resident_bytes();

  // A brand-new store over the same directory loads from disk — no
  // rebuild — and the loaded database is byte-for-byte the saved one.
  MarketStore reopened{specs, options};
  const auto loaded = reopened.acquire(0);
  EXPECT_FALSE(loaded->rebuilt()) << loaded->load_error();
  EXPECT_EQ(loaded->db_resident_bytes(), first_bytes);
  EXPECT_EQ(loaded->db_entry_count(), first->db_entry_count());
}

/// What `store` still charges once rung 1 has stripped every market but
/// `keep` down to its model half: any budget below this must evict whole
/// markets. Acquires `ids` (all hits on a store that already holds them).
[[nodiscard]] std::size_t rung1_floor(MarketStore& store,
                                      const std::vector<MarketId>& ids,
                                      MarketId keep) {
  std::size_t floor = store.acquire(keep)->resident_bytes();
  for (const MarketId id : ids) {
    if (id == keep) continue;
    const auto handle = store.acquire(id);
    floor += handle->resident_bytes() - handle->db_resident_bytes();
  }
  return floor;
}

TEST(MarketStore, EvictsLruUnderByteBudgetAndRematerializes) {
  const std::string dir = fresh_dir("fleet_store_evict");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(3));

  // A budget below rung 1's floor after acquiring 0, 1, 2: stripping the
  // cold markets' footprints cannot fit it, so rung 2 must evict.
  std::size_t db0_bytes = 0;
  std::size_t floor = 0;
  {
    MarketStore probe{specs, options};
    db0_bytes = probe.acquire(0)->db_resident_bytes();
    floor = rung1_floor(probe, {0, 1, 2}, 2);
  }
  options.byte_budget = floor - 1;

  MarketStore store{specs, options};
  const auto h0 = store.acquire(0);
  EXPECT_TRUE(h0->streaming());
  (void)store.acquire(1);
  (void)store.acquire(2);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_LT(store.resident_count(), 3u);

  // Market 0 was evicted (LRU); its handle we still hold stays usable and
  // a re-acquire rematerializes from disk, not from the terrain stack.
  EXPECT_FALSE(store.resident(0));
  EXPECT_GT(h0->db_entry_count(), 0u);
  const auto h0_again = store.acquire(0);
  EXPECT_FALSE(h0_again->rebuilt()) << h0_again->load_error();
  EXPECT_NE(h0_again.get(), h0.get());
  EXPECT_EQ(h0_again->db_resident_bytes(), db0_bytes);
}

TEST(MarketStore, StreamingReleasesFootprintsBeforeEvicting) {
  const std::string dir = fresh_dir("fleet_store_stream");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));

  // Warm pass: rebuilds save v3 and reopen through the mapping, so both
  // handles stream; measure full residency for the budget arithmetic.
  std::size_t full0 = 0;
  std::size_t full1 = 0;
  std::size_t db0 = 0;
  {
    MarketStore warm{specs, options};
    const auto h0 = warm.acquire(0);
    EXPECT_TRUE(h0->rebuilt());
    EXPECT_TRUE(h0->streaming()) << h0->load_error();
    const auto h1 = warm.acquire(1);
    full0 = h0->resident_bytes();
    full1 = h1->resident_bytes();
    db0 = h0->db_resident_bytes();
    ASSERT_GT(db0, 0u);
  }

  // A budget both full markets bust but one full + one stripped fits:
  // rung 1 must strip the cold market's footprint heap and rung 2 must
  // never fire — partial residency instead of eviction.
  options.byte_budget = full0 + full1 - db0 / 2;
  MarketStore store{specs, options};
  const auto h0 = store.acquire(0);
  EXPECT_FALSE(h0->rebuilt()) << h0->load_error();
  EXPECT_TRUE(h0->streaming());
  (void)store.acquire(1);
  EXPECT_GT(store.releases(), 0u);
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_TRUE(store.resident(0));
  EXPECT_TRUE(store.resident(1));
  EXPECT_LE(store.resident_bytes(), options.byte_budget);
  EXPECT_LE(store.enforced_peak_bytes(), options.byte_budget);
  EXPECT_EQ(h0->db_resident_bytes(), 0u);  // stripped to the mapping

  // Re-acquiring the stripped market is a hit that re-touches its
  // footprints bit-identically at their stable addresses.
  const auto h0_again = store.acquire(0);
  EXPECT_EQ(h0_again.get(), h0.get());
  EXPECT_EQ(h0_again->db_resident_bytes(), db0);
}

TEST(MarketStore, V2FileIsRebuiltAsMappableV3) {
  // The store opens v3 only: a file of an older version (here a v2 header)
  // is regenerated from the market's seed, and the re-saved v3 file
  // streams.
  const std::string dir = fresh_dir("fleet_store_v2");
  const StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(1));
  MarketStore store{specs, options};
  {
    std::ofstream out(store.db_path(0), std::ios::binary);
    const std::uint64_t magic = pathloss::format::kMagic;
    const std::uint32_t version = 2;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    out << std::string(64, '\0');
  }

  const auto handle = store.acquire(0);
  EXPECT_TRUE(handle->rebuilt());
  EXPECT_TRUE(handle->streaming());
  EXPECT_NE(handle->load_error().find("unsupported version 2"),
            std::string::npos)
      << handle->load_error();
  const auto probe = pathloss::PathLossDatabase::probe(store.db_path(0));
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.entry_count, handle->db_entry_count());
}

TEST(MarketStore, IncompleteFileIsRebuilt) {
  // A sound v3 file that lacks one of the store's tilts fails rung 1 and
  // must be rebuilt in full — not loaded as is by the rebuild rung.
  const std::string dir = fresh_dir("fleet_store_incomplete");
  StoreOptions options = store_options(dir);
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(1));
  std::size_t tilt0_entries = 0;
  {
    MarketStore tilt0{specs, options};
    tilt0_entries = tilt0.acquire(0)->db_entry_count();
  }
  options.tilts = {0, 1};
  MarketStore store{specs, options};
  const auto handle = store.acquire(0);
  EXPECT_TRUE(handle->rebuilt());
  EXPECT_TRUE(handle->streaming());
  EXPECT_EQ(handle->load_error(), "database incomplete for this market");
  EXPECT_EQ(handle->db_entry_count(), 2 * tilt0_entries);
}

TEST(MarketStore, UnknownMarketThrows) {
  MarketStore store{specs_from_fleet(tiny_fleet(1)),
                    store_options(fresh_dir("fleet_store_unknown"))};
  EXPECT_THROW((void)store.acquire(7), std::out_of_range);
  EXPECT_THROW((void)store.spec(7), std::out_of_range);
}

/// Fingerprints one market's upgrades through the plain single-market
/// pipeline: fresh Experiment, lazily built footprints, its own planner.
[[nodiscard]] std::uint64_t standalone_fingerprint(
    const data::MarketParams& params, std::size_t max_sites,
    const WavePlannerOptions& options) {
  data::Experiment experiment{params};
  core::Evaluator evaluator{&experiment.model(), options.utility};
  core::PlannerOptions popts = options.planner;
  popts.shared_pool = nullptr;
  popts.threads = 1;
  const core::MagusPlanner planner{&evaluator, popts};
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (const auto& targets :
       upgrade_targets_for(experiment.network(), max_sites)) {
    const core::MitigationPlan plan = planner.plan_upgrade(targets);
    hash = plan_fingerprint(plan.search.config, plan.recovery, hash);
  }
  return hash;
}

[[nodiscard]] WavePlannerOptions test_planner_options() {
  WavePlannerOptions options;
  options.planner.mode = core::TuningMode::kPower;
  options.crew_cap = 2;
  options.threads = 1;
  return options;
}

TEST(WavePlanner, PlansBitIdenticalToSingleMarketPath) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  MarketStore store{specs, store_options(fresh_dir("fleet_plan_identity"))};
  WavePlanner planner{&store, test_planner_options()};

  const std::vector<MarketUpgradeRequest> requests = {{0, 1},
                                                      {1, 1}};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_EQ(plan.markets.size(), 2u);
  for (const MarketPlan& market_plan : plan.markets) {
    EXPECT_EQ(market_plan.fingerprint,
              standalone_fingerprint(
                  store.spec(market_plan.market).params, 1,
                  planner.options()))
        << "market " << market_plan.market;
  }
}

TEST(WavePlanner, EvictionNeverChangesPlans) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(3));
  const std::string dir = fresh_dir("fleet_plan_evict");
  const std::vector<MarketUpgradeRequest> requests = {
      {0, 1}, {1, 1}, {2, 1}};

  MarketStore unbounded{specs, store_options(dir)};
  WavePlanner planner_a{&unbounded, test_planner_options()};
  const FleetWavePlan plan_a = planner_a.plan(requests);
  const std::size_t budget = unbounded.peak_resident_bytes() / 2;

  MarketStore capped{specs, store_options(dir, budget)};
  WavePlanner planner_b{&capped, test_planner_options()};
  const FleetWavePlan plan_b = planner_b.plan(requests);
  // The budget forced enforcement: rung-1 footprint releases on streaming
  // markets and/or rung-2 whole-market evictions. Either way the plans
  // must not change.
  EXPECT_GT(capped.evictions() + capped.releases(), 0u);
  EXPECT_EQ(plan_a.fleet_fingerprint(), plan_b.fleet_fingerprint());

  // Re-planning a long-evicted market reproduces its fingerprint exactly.
  const FleetWavePlan replan = planner_b.plan(std::span{&requests[0], 1});
  EXPECT_EQ(replan.markets.front().fingerprint,
            plan_a.markets.front().fingerprint);
}

TEST(WavePlanner, RecoveryFloorDefersUpgrades) {
  MarketStore store{specs_from_fleet(tiny_fleet(1)),
                    store_options(fresh_dir("fleet_plan_floor"))};
  WavePlannerOptions options = test_planner_options();
  options.recovery_floor = std::numeric_limits<double>::infinity();
  WavePlanner planner{&store, options};

  const std::vector<MarketUpgradeRequest> requests = {{0, 2}};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_EQ(plan.markets.size(), 1u);
  EXPECT_TRUE(plan.markets.front().upgrades.empty());
  EXPECT_EQ(plan.markets.front().deferred.size(), 2u);
  EXPECT_EQ(plan.wave.makespan(), 0u);

  // The per-market override wins over the fleet floor.
  const std::vector<MarketUpgradeRequest> lenient = {
      {0, 2, -std::numeric_limits<double>::infinity()}};
  const FleetWavePlan plan2 = planner.plan(lenient);
  EXPECT_EQ(plan2.markets.front().upgrades.size(), 2u);
  EXPECT_TRUE(plan2.markets.front().deferred.empty());
}

TEST(WavePlanner, ExecutesWaveWithPerMarketJournals) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  MarketStore store{specs, store_options(fresh_dir("fleet_exec_db"))};
  WavePlanner planner{&store, test_planner_options()};
  const std::vector<MarketUpgradeRequest> requests = {{0, 1},
                                                      {1, 1}};
  const FleetWavePlan plan = planner.plan(requests);

  FleetExecutionOptions exec_options;
  exec_options.campaign.seed = 21;
  exec_options.journal_dir = fresh_dir("fleet_exec_journals");
  const FleetExecutionResult result = planner.execute(plan, exec_options);
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.markets.size(), 2u);
  EXPECT_EQ(result.upgrades_completed + result.upgrades_rolled_back +
                result.upgrades_skipped,
            plan.upgrades_total());
  for (const MarketExecution& market : result.markets) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path{exec_options.journal_dir} /
        ("market_" + std::to_string(market.market) + ".journal")));
  }

  // Distinct markets run under distinct derived campaign seeds.
  EXPECT_NE(exec::market_campaign_seed(21, 0),
            exec::market_campaign_seed(21, 1));

  // A resumed execution replays every completed market from its journal:
  // same outcomes, resume counters bumped.
  FleetExecutionOptions resume_options = exec_options;
  resume_options.resume = true;
  const FleetExecutionResult resumed = planner.execute(plan, resume_options);
  EXPECT_EQ(resumed.upgrades_completed, result.upgrades_completed);
  for (const MarketExecution& market : resumed.markets) {
    EXPECT_GE(market.result.resumes, 1);
  }
}


[[nodiscard]] std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// The plan as a caller without carried plans would hold it: execute()
/// then plans every upgrade when it runs.
[[nodiscard]] FleetWavePlan strip_plans(FleetWavePlan plan) {
  for (MarketPlan& market : plan.markets) market.plans.clear();
  return plan;
}

[[nodiscard]] std::map<MarketId, std::string> result_dumps(
    const FleetExecutionResult& result) {
  std::map<MarketId, std::string> dumps;
  for (const MarketExecution& market : result.markets) {
    dumps[market.market] = market.result.to_json().dump();
  }
  return dumps;
}

/// Per-upgrade outcome + trace, without the resume bookkeeping that
/// CampaignResult::to_json carries.
[[nodiscard]] std::vector<std::string> trace_dumps(
    const FleetExecutionResult& result) {
  std::vector<std::string> dumps;
  for (const MarketExecution& market : result.markets) {
    for (const exec::UpgradeResult& upgrade : market.result.upgrades) {
      dumps.push_back(std::to_string(market.market) + "/" +
                      std::to_string(upgrade.upgrade) + " " +
                      exec::upgrade_outcome_name(upgrade.outcome) + " " +
                      upgrade.trace.to_json().dump());
    }
  }
  return dumps;
}

/// Seeded outages on each upgrade's involved set; a threshold-1 breaker
/// turns them into quarantines, so later windows re-plan.
void arm_outages(const FleetWavePlan& plan, FleetExecutionOptions& options) {
  options.campaign.quarantine.fault_threshold = 1;
  options.injectors = [&plan, seed = options.campaign.seed](MarketId market) {
    const auto it =
        std::find_if(plan.markets.begin(), plan.markets.end(),
                     [&](const MarketPlan& m) { return m.market == market; });
    std::vector<traffic::PlannedUpgrade> upgrades = it->upgrades;
    return [upgrades, market, seed](std::size_t upgrade)
               -> std::unique_ptr<exec::FaultInjector> {
      exec::RandomFaultOptions fopts;
      fopts.outage_probability_per_step = 0.3;
      fopts.outage_candidates = upgrades[upgrade].involved;
      return std::make_unique<exec::RandomFaultInjector>(
          exec::upgrade_seed(exec::market_campaign_seed(seed, market),
                             upgrade),
          fopts);
    };
  };
}

/// Executing the carried plans must give byte-identical campaign results
/// to re-planning every upgrade, under a budget that evicts every market
/// between plan() and execute(); a resume from a torn journal must then
/// reproduce the uninterrupted traces.
void expect_carried_execution_matches_replanning(const std::string& name,
                                                 bool outages) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(3));
  const std::string dir = fresh_dir(name + "_db");
  const std::vector<MarketUpgradeRequest> requests = {
      {0, 3}, {1, 3}, {2, 3}};
  StoreOptions options = store_options(dir);
  // A budget below rung 1's floor once all three markets are planned, so
  // whole markets are evicted, LRU first.
  std::size_t floor = 0;
  {
    MarketStore unbounded{specs, options};
    WavePlanner probe{&unbounded, test_planner_options()};
    (void)probe.plan(requests);
    floor = rung1_floor(unbounded, {0, 1, 2}, 2);
  }
  options.byte_budget = floor - 1;
  MarketStore store{specs, options};
  WavePlanner planner{&store, test_planner_options()};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_EQ(plan.markets.size(), 3u);
  ASSERT_FALSE(store.resident(0));  // evicted between plan and execute
  for (const MarketPlan& market : plan.markets) {
    ASSERT_EQ(market.plans.size(), market.upgrades.size());
  }

  FleetExecutionOptions exec_options;
  exec_options.campaign.seed = 33;
  if (outages) arm_outages(plan, exec_options);
  exec_options.journal_dir = fresh_dir(name + "_carried");
  const std::uint64_t carried_before =
      counter_value("exec.campaign.plans_carried");
  const std::uint64_t replanned_before =
      counter_value("exec.campaign.plans_replanned");
  const FleetExecutionResult carried = planner.execute(plan, exec_options);
  const std::uint64_t carried_runs =
      counter_value("exec.campaign.plans_carried") - carried_before;
  const std::uint64_t replanned_runs =
      counter_value("exec.campaign.plans_replanned") - replanned_before;
  EXPECT_GT(carried_runs, 0u);
  if (outages) {
    // Both branches ran: quarantined windows re-planned.
    EXPECT_GT(carried.quarantine_events, 0);
    EXPECT_GT(replanned_runs, 0u);
  } else {
    EXPECT_EQ(replanned_runs, 0u);
  }

  FleetExecutionOptions stripped_options = exec_options;
  stripped_options.journal_dir = fresh_dir(name + "_stripped");
  const FleetExecutionResult replanned =
      planner.execute(strip_plans(plan), stripped_options);
  ASSERT_EQ(carried.markets.size(), 3u);
  EXPECT_EQ(result_dumps(carried), result_dumps(replanned));

  // Tear the middle market's journal and drop the later ones: the resume
  // replays, continues mid-campaign and reproduces every trace.
  const std::size_t mid = carried.markets.size() / 2;
  for (std::size_t i = mid; i < carried.markets.size(); ++i) {
    const std::filesystem::path path =
        std::filesystem::path{exec_options.journal_dir} /
        ("market_" + std::to_string(carried.markets[i].market) + ".journal");
    if (i == mid) {
      std::filesystem::resize_file(path,
                                   std::filesystem::file_size(path) / 2);
    } else {
      std::filesystem::remove(path);
    }
  }
  FleetExecutionOptions resume_options = exec_options;
  resume_options.resume = true;
  const FleetExecutionResult resumed = planner.execute(plan, resume_options);
  EXPECT_EQ(trace_dumps(resumed), trace_dumps(carried));
}

TEST(WavePlanner, CarriedPlansExecuteLikeReplanning) {
  expect_carried_execution_matches_replanning("fleet_carried_clean", false);
}

TEST(WavePlanner, CarriedPlansExecuteLikeReplanningUnderQuarantine) {
  expect_carried_execution_matches_replanning("fleet_carried_faults", true);
}

TEST(WavePlanner, ExecuteOnFreshStoreBuildsNoIndex) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  const std::string dir = fresh_dir("fleet_exec_no_index");
  const std::vector<MarketUpgradeRequest> requests = {{0, 2}, {1, 2}};
  MarketStore planning_store{specs, store_options(dir)};
  const FleetWavePlan plan =
      WavePlanner{&planning_store, test_planner_options()}.plan(requests);

  // A fresh store acquires every market cold; running only carried plans
  // never searches, so no coverage index is built.
  MarketStore store{specs, store_options(dir)};
  WavePlanner planner{&store, test_planner_options()};
  const std::uint64_t builds_before = counter_value("model.index.builds");
  const std::uint64_t replanned_before =
      counter_value("exec.campaign.plans_replanned");
  const FleetExecutionResult result = planner.execute(plan);
  EXPECT_EQ(result.upgrades_completed, plan.upgrades_total());
  EXPECT_EQ(counter_value("model.index.builds"), builds_before);
  EXPECT_EQ(counter_value("exec.campaign.plans_replanned"), replanned_before);
}

TEST(WavePlanner, ExecuteRejectsPlansThatDoNotMatchTheFingerprint) {
  const std::vector<MarketSpec> specs = specs_from_fleet(tiny_fleet(2));
  MarketStore store{specs, store_options(fresh_dir("fleet_exec_guard_db"))};
  WavePlanner planner{&store, test_planner_options()};
  const std::vector<MarketUpgradeRequest> requests = {{0, 2}, {1, 2}};
  const FleetWavePlan plan = planner.plan(requests);
  ASSERT_FALSE(plan.markets[1].plans.empty());

  FleetExecutionOptions exec_options;
  exec_options.journal_dir = fresh_dir("fleet_exec_guard_journals");
  const auto expect_rejected = [&](const FleetWavePlan& bad) {
    try {
      (void)planner.execute(bad, exec_options);
      ADD_FAILURE() << "execute accepted a plan that was not made";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string{error.what()}.find("market 1"),
                std::string::npos)
          << error.what();
    }
    // Rejected before any market ran: no journal record anywhere.
    EXPECT_TRUE(!std::filesystem::exists(exec_options.journal_dir) ||
                std::filesystem::is_empty(exec_options.journal_dir));
  };

  // An edited C_after no longer hashes to the market's fingerprint...
  FleetWavePlan edited = plan;
  net::SectorSetting& setting =
      edited.markets[1].plans.front().search.config[0];
  setting.power_dbm += 1.0;
  expect_rejected(edited);

  // ...and plans that are not parallel to the upgrades are refused too.
  FleetWavePlan short_plans = plan;
  short_plans.markets[1].plans.pop_back();
  expect_rejected(short_plans);
}

}  // namespace
}  // namespace magus::fleet
