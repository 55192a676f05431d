#include "model/market_context.h"

#include <stdexcept>

#include "util/units.h"

namespace magus::model {

MarketContext::MarketContext(const net::Network* network,
                             pathloss::PathLossProvider* provider,
                             ModelOptions options)
    : network_(network), provider_(provider), options_(options) {
  if (network_ == nullptr || provider_ == nullptr) {
    throw std::invalid_argument(
        "MarketContext: network and provider must not be null");
  }
  noise_mw_ = util::dbm_to_mw(network_->noise_floor_dbm());
  ue_density_.assign(static_cast<std::size_t>(cell_count()), 0.0);
}

void MarketContext::set_ue_density(std::vector<double> density) {
  if (density.size() != static_cast<std::size_t>(cell_count())) {
    throw std::invalid_argument("MarketContext::set_ue_density: size");
  }
  ue_density_ = std::move(density);
}

void MarketContext::build_coverage_index() {
  const pathloss::format::IndexSection* section =
      provider_->coverage_section();
  if (section != nullptr && CoverageIndex::binds_to(*section, *network_)) {
    index_ = std::make_unique<CoverageIndex>(CoverageIndex::bind(*section));
  } else {
    index_ = std::make_unique<CoverageIndex>(
        CoverageIndex::build(*network_, *provider_));
  }
}

void MarketContext::ensure_coverage_index() {
  if (!index_) build_coverage_index();
}

}  // namespace magus::model
