// EvalContext: the lightweight, mutable half of the analysis model (the
// per-grid best server, SINR, rates and per-sector loads of Figure 6,
// paper §4.1, Formulas 1-4).
//
// An EvalContext is (GridState + Configuration + footprint handles) over a
// shared, read-only MarketContext. It is cheap to copy — the copy shares
// the market — so a parallel evaluator can keep one clone per worker
// thread and score independent candidates concurrently. All mutations are
// *incremental*: power and tilt changes update only the grids inside the
// changed sector's footprint, which is what makes the search algorithm's
// hundreds of candidate evaluations tractable at market scale. Snapshots
// (cheap vector copies) give the search O(1)-complexity backtracking.
//
// Thread-safety contract: an EvalContext is single-owner — exactly one
// thread may mutate or query it (the lazy sector-load cache makes even
// const queries writes). Sharing happens one level up, at the
// MarketContext, which every clone reads concurrently without locks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/grid_state.h"
#include "model/market_context.h"
#include "net/configuration.h"

namespace magus::model {

class EvalContext {
 public:
  /// `market` must outlive the context. Builds the state for the network's
  /// default configuration.
  explicit EvalContext(const MarketContext* market);

  /// Copies share the market; per-worker clones are built this way.
  EvalContext(const EvalContext&) = default;
  EvalContext& operator=(const EvalContext&) = default;

  [[nodiscard]] const MarketContext& market() const { return *market_; }
  [[nodiscard]] const net::Network& network() const {
    return market_->network();
  }
  [[nodiscard]] const geo::GridMap& grid() const { return market_->grid(); }
  [[nodiscard]] const net::Configuration& configuration() const {
    return config_;
  }
  [[nodiscard]] const ModelOptions& options() const {
    return market_->options();
  }
  [[nodiscard]] std::int32_t cell_count() const {
    return market_->cell_count();
  }
  [[nodiscard]] std::span<const double> ue_density() const {
    return market_->ue_density();
  }

  /// Replaces the whole configuration (full rebuild).
  void set_configuration(const net::Configuration& config);

  /// Re-touches every sector's current-tilt footprint through the market's
  /// provider, re-fetching the current-footprint handles in place. The
  /// fleet MarketStore calls this after a streaming provider released its
  /// heap residency (MappedPathLossDatabase::release_residency): each
  /// touch rematerializes the plane bit-identically at its stable address,
  /// so the grid state and index bindings need no rebuild — only the
  /// touch. A no-op for providers that never release (their cached
  /// references stayed valid throughout).
  void retouch_footprints();

  // ---- Incremental mutations (keep configuration() in sync) ----

  /// Sets sector transmit power (clamped to the sector's range).
  void set_power(net::SectorId sector, double power_dbm);
  /// Takes a sector off-air / restores it.
  void set_active(net::SectorId sector, bool active);
  /// Changes electrical tilt (clamped; swaps the sector's footprint).
  void set_tilt(net::SectorId sector, int tilt_index);

  // ---- Snapshots for search backtracking ----

  struct Snapshot {
    GridState state;
    net::Configuration config;
  };
  [[nodiscard]] Snapshot snapshot() const { return {state_, config_}; }
  /// Restores a snapshot (copy-assign, so one snapshot can back multiple
  /// candidate probes in a search loop). Footprint handles are only
  /// re-fetched for sectors whose tilt actually differs.
  void restore(const Snapshot& snapshot);

  // ---- Per-grid queries ----

  [[nodiscard]] net::SectorId serving_sector(geo::GridIndex g) const {
    return state_.best[static_cast<std::size_t>(g)];
  }
  /// Received power from the serving sector (dBm; -inf when none).
  [[nodiscard]] double best_rp_dbm(geo::GridIndex g) const {
    return state_.best_rp_dbm[static_cast<std::size_t>(g)];
  }
  /// SINR per Formula 2; -inf when the grid has no server.
  [[nodiscard]] double sinr_db(geo::GridIndex g) const;
  [[nodiscard]] lte::Cqi cqi(geo::GridIndex g) const;
  /// True when SINR >= min_service_sinr_db (rate would be positive).
  [[nodiscard]] bool in_service(geo::GridIndex g) const;
  /// r_max(g): rate with the sector to itself (Formula per §4.1).
  [[nodiscard]] double max_rate_bps(geo::GridIndex g) const;
  /// Actual shared rate r(g) = r_max(g) / N (Formula 4), using the
  /// scheduler model. Zero out of service.
  [[nodiscard]] double rate_bps(geo::GridIndex g) const;

  /// Serving map snapshot (kInvalidSector where out of service: a grid
  /// attached to a server below SINRmin counts as unserved, like the
  /// paper's r_max = 0 rule).
  [[nodiscard]] std::vector<net::SectorId> service_map() const;

  /// cqi(g) for every cell in one kernel pass (cqi_kernel): the same
  /// values as the per-cell accessor, without a log10 per cell.
  [[nodiscard]] std::vector<std::int8_t> cqi_map() const;

  /// N(s): UEs attached per sector (in-service grids only; Formula 3).
  /// Computed lazily and cached until the next mutation.
  [[nodiscard]] const std::vector<double>& sector_loads() const;

  /// Low-level state access for the evaluator's fused utility pass.
  [[nodiscard]] const GridState& state() const { return state_; }
  [[nodiscard]] double noise_mw() const { return market_->noise_mw(); }

  // ---- Coverage-index fast path ----

  /// Binds the market's grid-major coverage index, which must be built
  /// first (MarketContext::ensure_coverage_index). A context starts
  /// unbound and stays bound once bound; clones inherit the binding. When
  /// bound, recompute_top2 scans the cell's ranked cover span instead of
  /// probing every active sector, and sectors away from the indexed tilt
  /// (CoverageIndex::kTilt) fall back to direct footprint probes. Results
  /// are bit-identical bound or unbound; full rebuilds run the same
  /// sector-major sweep either way.
  void bind_coverage_index();
  [[nodiscard]] bool coverage_index_bound() const {
    return index_ != nullptr;
  }

  // ---- Candidate probing (Algorithm 1 line 4) ----

  /// Would changing sector b's power by delta_db improve grid g's *actual*
  /// rate r(g) (Formula 4)? The new rate is approximated with the current
  /// per-sector loads (the true loads after the change are only known once
  /// it is applied; the evaluation step decides for real). O(1); does not
  /// mutate the context. Accounts for b becoming/ceasing to be the best
  /// server of g — including takeovers that merely move g's UEs to a less
  /// loaded sector, which is how tuning relieves post-outage congestion.
  [[nodiscard]] bool power_delta_improves_rate(net::SectorId b,
                                               double delta_db,
                                               geo::GridIndex g) const;

  /// Same question for a tilt change of sector b to absolute index `tilt`.
  /// O(1) per call after the footprint for `tilt` is materialized.
  [[nodiscard]] bool tilt_improves_rate(net::SectorId b, int tilt,
                                        geo::GridIndex g);

 protected:
  void invalidate_loads() { loads_valid_ = false; }

 private:
  void rebuild();
  /// Re-collects the active sectors away from the indexed tilt
  /// (off_index_sectors_), which force recompute_top2 onto the
  /// footprint-probe fallback, and refreshes the per-sector mirrors below.
  void sync_index_bookkeeping();
  /// Approximate post-change actual rate of grid g when sector `changed`
  /// would be received at `changed_rp` and the cell's total received power
  /// becomes `new_total_mw` (shared probe core for power/tilt candidates).
  [[nodiscard]] double probe_rate_bps(net::SectorId changed, double changed_rp,
                                      double new_total_mw,
                                      geo::GridIndex g) const;
  void add_contribution(net::SectorId sector,
                        const pathloss::SectorFootprint& footprint,
                        double power_dbm);
  void remove_contribution(net::SectorId sector,
                           const pathloss::SectorFootprint& footprint,
                           double power_dbm);
  /// Replaces sector's contribution at old_fp with new_fp (same power) in
  /// one fused sweep; the configuration and mirrors must already hold the
  /// new tilt.
  void swap_contribution(net::SectorId sector,
                         const pathloss::SectorFootprint& old_fp,
                         const pathloss::SectorFootprint& new_fp);
  /// Re-ranks the cells a mutation sweep queued: the vector batch on the
  /// pure index fast path, recompute_top2 per cell otherwise.
  void rerank_deferred(const std::vector<geo::GridIndex>& cells);
  /// Re-ranks the top-2 servers of one grid by scanning active sectors.
  void recompute_top2(geo::GridIndex g);
  /// Vectorized recompute_top2 over a batch of cells (K lanes at a time);
  /// requires the pure index fast path (index_ bound, off_index_sectors_
  /// empty). Bit-identical to calling recompute_top2 per cell.
  void recompute_top2_batch(const std::vector<geo::GridIndex>& cells);
  [[nodiscard]] double sinr_from(double rp_dbm, double rp_mw,
                                 double total_mw) const;
  [[nodiscard]] const pathloss::SectorFootprint& footprint_of(
      net::SectorId sector) const {
    return *current_footprint_[static_cast<std::size_t>(sector)];
  }

  const MarketContext* market_;
  net::Configuration config_;
  GridState state_;
  /// Footprint in effect per sector (at its current tilt); points into the
  /// provider's caches, which stay valid for the provider's lifetime.
  std::vector<const pathloss::SectorFootprint*> current_footprint_;
  /// The market's shared coverage index, or nullptr until
  /// bind_coverage_index (the unbound all-sectors scan is in effect).
  const CoverageIndex* index_ = nullptr;
  /// Ids of the active sectors whose current tilt is not the indexed one,
  /// in ascending order (empty on the pure fast path; maintained by
  /// sync_index_bookkeeping). recompute_top2's footprint fallback visits
  /// only these, so its cost is O(active off-index sectors) per cell.
  std::vector<net::SectorId> off_index_sectors_;
  /// Per-sector mirrors so the span scans touch flat arrays instead of
  /// gathering from Configuration per entry: on_index_[s] is 1 when s is
  /// active and at the indexed tilt, 0 otherwise (one flag folds the
  /// active check and the off-index case; int32 so the SIMD sweeps gather
  /// it); sector_power_[s] mirrors config_[s].power_dbm. power_cap_
  /// bounds every active on-index sector's power (conservatively
  /// stale-high after a power decrease) — recompute_top2's ranked early
  /// exit relies on it. All kept in sync by sync_index_bookkeeping + the
  /// set_power fast update.
  std::vector<std::int32_t> on_index_;
  std::vector<double> sector_power_;
  /// dbm_to_mw(sector_power_[s]) cached per sector so the hot sweeps
  /// multiply instead of calling pow. Refreshed lazily by
  /// sync_index_bookkeeping (only for sectors whose mirrored power
  /// changed) and by set_power; dbm_to_mw is deterministic, so the cached
  /// product is bit-identical to recomputing it.
  std::vector<double> sector_plin_;
  double power_cap_ = 0.0;
  /// Reusable re-rank list for the mutation sweeps (avoids a heap
  /// allocation per incremental mutation).
  std::vector<geo::GridIndex> recompute_scratch_;

  mutable std::vector<double> sector_loads_;
  mutable bool loads_valid_ = false;
};

}  // namespace magus::model
