// MarketContext: the immutable, shareable half of the analysis model.
//
// Everything the evaluation of a candidate configuration *reads* but never
// *writes* lives here: the network topology, the path-loss provider, the
// AMC/scheduler options, the noise floor and the frozen UE density. One
// MarketContext is shared read-only by every per-thread EvalContext, which
// is what lets candidate evaluation fan out across cores without copying
// the market-scale inputs.
//
// Thread-safety contract: all accessors are safe to call concurrently once
// the context is constructed and the UE density is frozen. set_ue_density()
// is the one mutator; it must only be called from the driver thread while
// no parallel evaluation is in flight (the planner freezes the density at
// C_before, before any search runs). The path-loss provider is shared too:
// provider().footprint() is internally synchronized (see
// pathloss::PathLossProvider).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lte/amc.h"
#include "lte/scheduler.h"
#include "model/coverage_index.h"
#include "net/network.h"
#include "pathloss/database.h"

namespace magus::model {

struct ModelOptions {
  lte::SchedulerModel scheduler;
  /// Minimum SINR for service; below it r_max = 0 (paper's SINRmin).
  /// Defaults to the CQI-1 switching threshold.
  double min_service_sinr_db = -6.7;
};

class MarketContext {
 public:
  /// `network` and `provider` must outlive the context.
  MarketContext(const net::Network* network,
                pathloss::PathLossProvider* provider, ModelOptions options);

  [[nodiscard]] const net::Network& network() const { return *network_; }
  /// Shared by all eval contexts; footprint() is internally synchronized.
  [[nodiscard]] pathloss::PathLossProvider& provider() const {
    return *provider_;
  }
  [[nodiscard]] const geo::GridMap& grid() const { return provider_->grid(); }
  [[nodiscard]] const ModelOptions& options() const { return options_; }
  [[nodiscard]] std::int32_t cell_count() const {
    return grid().cell_count();
  }
  [[nodiscard]] double noise_mw() const { return noise_mw_; }

  [[nodiscard]] std::span<const double> ue_density() const {
    return ue_density_;
  }
  /// Driver-thread only; must not race with parallel evaluation.
  void set_ue_density(std::vector<double> density);

  // ---- Grid-major inverted coverage index (see coverage_index.h) ----

  /// Builds (or rebuilds) the coverage index. When the provider stores a
  /// coverage-index section built over exactly this network's sectors
  /// (PathLossProvider::coverage_section, checked on that first request),
  /// the index binds it zero-copy instead; otherwise — an in-memory
  /// provider, a file without the section, another sector list, or a
  /// decorator that does not forward the section — it is built from the
  /// footprints. Either way the arrays are the same bytes. Throws when the
  /// stored section is damaged. Driver-thread only; must not race with
  /// parallel evaluation — EvalContexts hold raw pointers into the index,
  /// so rebuild only while no context has it bound (ParallelEvaluator
  /// builds it up front).
  void build_coverage_index();
  /// Builds (or binds) the index iff it does not exist yet.
  void ensure_coverage_index();
  /// The shared index, or nullptr before the first build.
  [[nodiscard]] const CoverageIndex* coverage_index() const {
    return index_.get();
  }
  /// Bytes of the index's arrays (0 before the first build), built or
  /// bound; surfaced in the model.index.bytes gauge of --metrics
  /// snapshots.
  [[nodiscard]] std::size_t index_bytes() const {
    return index_ ? index_->index_bytes() : 0;
  }

  /// Bytes held by the context itself (frozen UE density + coverage
  /// index; a bound index is charged its arrays' length, like a built
  /// one). The path-loss provider's footprints are accounted separately
  /// by their owner; the fleet MarketStore adds both when charging a
  /// resident market against its byte budget.
  [[nodiscard]] std::size_t resident_bytes() const {
    return ue_density_.capacity() * sizeof(double) + index_bytes();
  }

 private:
  const net::Network* network_;
  pathloss::PathLossProvider* provider_;
  ModelOptions options_;
  std::vector<double> ue_density_;
  double noise_mw_ = 0.0;
  std::unique_ptr<CoverageIndex> index_;
};

}  // namespace magus::model
