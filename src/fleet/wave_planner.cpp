#include "fleet/wave_planner.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"

namespace magus::fleet {

namespace {

struct WaveMetrics {
  obs::Counter& markets_planned;
  obs::Counter& upgrades_planned;
  obs::Counter& upgrades_deferred;
  obs::Histogram& market_plan_latency_us;

  [[nodiscard]] static WaveMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static WaveMetrics metrics{
        registry.counter("fleet.plan.markets"),
        registry.counter("fleet.plan.upgrades"),
        registry.counter("fleet.plan.deferred"),
        registry.histogram("fleet.plan.market_latency_us",
                           obs::exponential_bounds(10'000.0, 4.0, 12)),
    };
    return metrics;
  }
};

/// The plan-integrity guard: carried plans must be the ones plan_market
/// made, re-hashed through the same fingerprint chain.
void check_carried_plans(const MarketPlan& market) {
  if (market.plans.empty()) return;
  const std::string name = "WavePlanner: market " +
                           std::to_string(market.market) + ": ";
  if (market.plans.size() != market.upgrades.size()) {
    throw std::invalid_argument(name +
                                "carried plans are not parallel to upgrades");
  }
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (const core::MitigationPlan& plan : market.plans) {
    hash = plan_fingerprint(plan.search.config, plan.recovery, hash);
  }
  if (hash != market.fingerprint) {
    throw std::invalid_argument(
        name + "carried plans do not match the planned fingerprint");
  }
}

}  // namespace

std::vector<std::vector<net::SectorId>> upgrade_targets_for(
    const net::Network& network, std::size_t max_sites) {
  std::vector<net::SiteId> sites = network.sites();
  std::sort(sites.begin(), sites.end());
  if (sites.size() > max_sites) sites.resize(max_sites);
  std::vector<std::vector<net::SectorId>> targets;
  targets.reserve(sites.size());
  for (const net::SiteId site : sites) {
    targets.push_back(network.sectors_at_site(site));
  }
  return targets;
}

std::uint64_t plan_fingerprint(const net::Configuration& c_after,
                               double recovery, std::uint64_t hash) {
  for (std::size_t i = 0; i < c_after.size(); ++i) {
    const net::SectorSetting& s = c_after[static_cast<net::SectorId>(i)];
    hash = util::fnv1a(&s.power_dbm, sizeof(s.power_dbm), hash);
    hash = util::fnv1a(&s.tilt, sizeof(s.tilt), hash);
    const std::uint8_t active = s.active ? 1 : 0;
    hash = util::fnv1a(&active, sizeof(active), hash);
  }
  return util::fnv1a(&recovery, sizeof(recovery), hash);
}

std::size_t FleetWavePlan::upgrades_total() const {
  std::size_t total = 0;
  for (const MarketPlan& m : markets) total += m.upgrades.size();
  return total;
}

std::uint64_t FleetWavePlan::fleet_fingerprint() const {
  std::vector<const MarketPlan*> ordered;
  ordered.reserve(markets.size());
  for (const MarketPlan& m : markets) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const MarketPlan* a, const MarketPlan* b) {
              return a->market < b->market;
            });
  std::uint64_t hash = util::kFnv1aOffsetBasis;
  for (const MarketPlan* m : ordered) {
    hash = util::fnv1a(&m->market, sizeof(m->market), hash);
    hash = util::fnv1a(&m->fingerprint, sizeof(m->fingerprint), hash);
  }
  return hash;
}

WavePlanner::WavePlanner(MarketStore* store, WavePlannerOptions options)
    : store_(store), options_(std::move(options)) {
  if (store_ == nullptr) {
    throw std::invalid_argument("WavePlanner: store must not be null");
  }
  if (options_.crew_cap == 0) {
    throw std::invalid_argument("WavePlanner: crew_cap must be positive");
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  options_.planner.shared_pool = pool_.get();
}

MarketPlan WavePlanner::plan_market(const MarketUpgradeRequest& request) {
  WaveMetrics& metrics = WaveMetrics::get();
  const obs::ScopedTimerUs timer{metrics.market_plan_latency_us};
  MAGUS_TRACE_SPAN("fleet.plan_market", "fleet");
  // Nested per-market span: the profile timeline shows which market each
  // planning slice belonged to.
  const obs::DynamicSpan market_span{
      "fleet.plan_market." + std::to_string(request.market), "fleet"};

  const std::shared_ptr<MarketHandle> handle = store_->acquire(request.market);
  core::Evaluator evaluator{&handle->model(), options_.utility};
  const core::MagusPlanner planner{&evaluator, options_.planner};

  const double floor = std::isnan(request.recovery_floor)
                           ? options_.recovery_floor
                           : request.recovery_floor;
  MarketPlan plan;
  plan.market = request.market;
  plan.db_rebuilt = handle->rebuilt();
  plan.fingerprint = util::kFnv1aOffsetBasis;

  for (const std::vector<net::SectorId>& targets :
       upgrade_targets_for(handle->network(), request.max_sites)) {
    core::MitigationPlan site_plan = planner.plan_upgrade(targets);
    if (site_plan.recovery < floor) {
      plan.deferred.emplace_back(handle->network().sector(targets.front()).site,
                                 site_plan.recovery);
      metrics.upgrades_deferred.add(1);
      continue;
    }
    traffic::PlannedUpgrade upgrade;
    upgrade.targets = site_plan.targets;
    upgrade.involved = site_plan.involved;
    plan.upgrades.push_back(std::move(upgrade));
    plan.recoveries.push_back(site_plan.recovery);
    plan.min_recovery = std::min(plan.min_recovery, site_plan.recovery);
    plan.fingerprint = plan_fingerprint(site_plan.search.config,
                                        site_plan.recovery, plan.fingerprint);
    plan.plans.push_back(std::move(site_plan));
    metrics.upgrades_planned.add(1);
  }
  plan.schedule =
      traffic::schedule_campaign(plan.upgrades, options_.max_windows_per_market);
  metrics.markets_planned.add(1);
  // Planning grew this market well past what acquire() charged (coverage
  // index built, footprints touched); settle the store's accounting and
  // budget now, not at the next acquire — this is what keeps the enforced
  // peak at the budget line during a fleet sweep.
  store_->enforce_budget();
  return plan;
}

FleetWavePlan WavePlanner::plan(
    std::span<const MarketUpgradeRequest> requests) {
  MAGUS_TRACE_SPAN("fleet.plan", "fleet");
  FleetWavePlan plan;
  plan.markets.reserve(requests.size());
  std::vector<traffic::MarketWaveInput> chains;
  chains.reserve(requests.size());
  for (const MarketUpgradeRequest& request : requests) {
    MarketPlan market_plan = plan_market(request);
    chains.push_back({market_plan.market, market_plan.schedule.window_count()});
    plan.markets.push_back(std::move(market_plan));
  }
  plan.wave = traffic::compose_wave(chains, options_.crew_cap);
  return plan;
}

FleetExecutionResult WavePlanner::execute(const FleetWavePlan& plan,
                                          const FleetExecutionOptions& options) {
  MAGUS_TRACE_SPAN("fleet.execute", "fleet");
  for (const MarketPlan& market : plan.markets) check_carried_plans(market);
  if (!options.journal_dir.empty()) {
    std::filesystem::create_directories(options.journal_dir);
  }
  // Markets run in wave first-appearance order: the order crews would
  // actually light up under the composed schedule.
  std::vector<MarketId> order;
  for (const traffic::WaveSlot& slot : plan.wave.slots) {
    for (const auto& [market, window] : slot.assignments) {
      if (std::find(order.begin(), order.end(), market) == order.end()) {
        order.push_back(market);
      }
    }
  }

  const exec::FleetRunner runner{options.campaign};
  FleetExecutionResult result;
  for (const MarketId market : order) {
    const auto it =
        std::find_if(plan.markets.begin(), plan.markets.end(),
                     [&](const MarketPlan& m) { return m.market == market; });
    if (it == plan.markets.end() || it->upgrades.empty()) continue;
    const obs::DynamicSpan market_span{
        "fleet.exec_market." + std::to_string(market), "fleet"};

    const std::shared_ptr<MarketHandle> handle = store_->acquire(market);
    core::Evaluator evaluator{&handle->model(), options_.utility};
    const core::MagusPlanner planner{&evaluator, options_.planner};

    exec::MarketCampaignRefs refs;
    refs.market_key = market;
    refs.upgrades = it->upgrades;
    refs.plans = it->plans;
    refs.schedule = &it->schedule;
    refs.evaluator = &evaluator;
    refs.planner = &planner;
    if (options.injectors) refs.injector_factory = options.injectors(market);
    if (!options.journal_dir.empty()) {
      refs.journal_path =
          (std::filesystem::path{options.journal_dir} /
           ("market_" + std::to_string(market) + ".journal"))
              .string();
    }
    MarketExecution exec_entry;
    exec_entry.market = market;
    exec_entry.result = runner.run_market(refs, options.resume);

    for (const exec::UpgradeResult& upgrade : exec_entry.result.upgrades) {
      switch (upgrade.outcome) {
        case exec::UpgradeOutcome::kCompleted:
          ++result.upgrades_completed;
          break;
        case exec::UpgradeOutcome::kRolledBack:
          ++result.upgrades_rolled_back;
          break;
        case exec::UpgradeOutcome::kSkippedQuarantined:
          ++result.upgrades_skipped;
          break;
      }
    }
    result.quarantine_events += exec_entry.result.quarantine_events;
    result.markets.push_back(std::move(exec_entry));
    store_->enforce_budget();  // same settling as after planning
  }
  result.completed = true;
  return result;
}

}  // namespace magus::fleet
