#include "core/search_types.h"

#include <cstdint>
#include <string>

#include "lte/amc.h"

namespace magus::core {

SearchMetrics::SearchMetrics(const char* driver)
    : batches_(obs::MetricsRegistry::global().counter(
          std::string("search.") + driver + ".batches")),
      candidates_(obs::MetricsRegistry::global().counter(
          std::string("search.") + driver + ".candidates")),
      accepted_(obs::MetricsRegistry::global().counter(
          std::string("search.") + driver + ".accepted")),
      rejected_(obs::MetricsRegistry::global().counter(
          std::string("search.") + driver + ".rejected")),
      batch_size_(obs::MetricsRegistry::global().histogram(
          "search.batch_size", obs::exponential_bounds(1.0, 2.0, 14))),
      ladder_prefix_(obs::MetricsRegistry::global().histogram(
          "search.ladder_prefix", obs::exponential_bounds(1.0, 2.0, 8))) {}

void SearchMetrics::batch(std::size_t size) {
  batches_.add(1);
  candidates_.add(size);
  batch_size_.observe(static_cast<double>(size));
}

void SearchMetrics::accept(std::uint64_t candidates) {
  accepted_.add(candidates);
}

void SearchMetrics::reject(std::uint64_t candidates) {
  rejected_.add(candidates);
}

void SearchMetrics::ladder_prefix(std::size_t accepted_rungs) {
  ladder_prefix_.observe(static_cast<double>(accepted_rungs));
}

void apply_candidate(model::EvalContext& context, const Candidate& candidate) {
  for (const Mutation& m : candidate.mutations) {
    switch (m.kind) {
      case Mutation::Kind::kPower:
        context.set_power(m.sector, m.power_dbm);
        break;
      case Mutation::Kind::kTilt:
        context.set_tilt(m.sector, m.tilt);
        break;
      case Mutation::Kind::kActive:
        context.set_active(m.sector, m.active);
        break;
    }
  }
}

std::vector<double> capture_rates(const model::EvalContext& context) {
  // rate_bps(g) for every cell, with the CQI from one kernel pass instead
  // of one log10 per cell.
  const std::vector<std::int8_t> cqi = context.cqi_map();
  const std::vector<double>& loads = context.sector_loads();
  const auto& best = context.state().best;
  const auto bandwidth = context.network().carrier().bandwidth;
  const auto& scheduler = context.options().scheduler;
  std::vector<double> rates(cqi.size(), 0.0);
  for (std::size_t i = 0; i < cqi.size(); ++i) {
    if (best[i] == net::kInvalidSector) continue;
    const double max_rate = lte::max_rate_bps_for_cqi(cqi[i], bandwidth);
    if (max_rate <= 0.0) continue;
    rates[i] = scheduler.shared_rate_bps(
        max_rate, loads[static_cast<std::size_t>(best[i])]);
  }
  return rates;
}

std::vector<geo::GridIndex> degraded_grids(
    const model::EvalContext& context, std::span<const double> baseline,
    std::span<const geo::GridIndex> universe) {
  std::vector<geo::GridIndex> degraded;
  for (const geo::GridIndex g : universe) {
    const double before = baseline[static_cast<std::size_t>(g)];
    if (context.rate_bps(g) < before * (1.0 - 1e-9)) {
      degraded.push_back(g);
    }
  }
  return degraded;
}

std::vector<geo::GridIndex> all_grids(const model::EvalContext& context) {
  std::vector<geo::GridIndex> grids(
      static_cast<std::size_t>(context.cell_count()));
  for (geo::GridIndex g = 0; g < context.cell_count(); ++g) {
    grids[static_cast<std::size_t>(g)] = g;
  }
  return grids;
}

}  // namespace magus::core
