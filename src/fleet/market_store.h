// MarketStore: the fleet's lazy, byte-budgeted cache of materialized
// markets, with footprint-granular residency.
//
// A fleet has hundreds of markets but the driver only ever works on a few
// at a time, and one market's resident footprint (path-loss windows +
// linear twins + coverage index) runs to tens of megabytes. The store owns
// the per-market path-loss database *paths* and materializes a market —
// topology regenerated from its seed, database opened zero-copy from its
// v3 file (or, when that file is missing, damaged or incomplete, rebuilt
// once from the full propagation stack, saved as v3 and opened mapped),
// analysis model bound on top — only when acquired, behind an LRU cache
// charged against a configurable byte budget.
//
// The accounting unit is the *footprint* (sector x tilt), not the market:
// a streaming market (MappedPathLossDatabase) charges only the heap its
// touched footprints pin — linear twins plus the model's market half —
// while the dB gain planes stay file-backed in the mapping, and the
// budget has two enforcement rungs. Rung 1 releases the path-loss heap of
// cold streaming markets (release_db_residency), which keeps the market's
// topology, model and coverage index warm; a later acquire re-touches the
// released planes bit-identically at their stable addresses (refresh()).
// Rung 2 evicts whole markets LRU-first, as before. A market bigger than
// the whole budget can therefore still plan under it: only the footprints
// a plan actually touches are ever heap-resident at once.
//
// Eviction at either rung is safe because materialization is
// deterministic: the topology regenerates bit-identically from its seed,
// the database formats round-trip bit-identically for any thread count,
// and the mapped provider rematerializes released entries bit-identically
// at the same address — so re-acquired markets produce byte-identical
// footprints, and therefore identical plans, to the first
// materialization. Handles are handed out as shared_ptr: an eviction
// drops the cache's reference, but a handle the caller still holds stays
// fully usable until released (after a rung-1 release, usable again once
// refresh() runs — acquire() does this automatically).
//
// Thread-safety: driver-thread only. The store is not internally
// synchronized — the fleet WavePlanner acquires markets sequentially and
// parallelizes *inside* a market (shared evaluation pool), not across
// markets.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/experiment.h"
#include "pathloss/mapped_database.h"

namespace magus::fleet {

/// Fleet-wide market key; dense 0-based in specs_from_fleet fleets.
using MarketId = std::int32_t;

struct MarketSpec {
  MarketId id = 0;
  data::MarketParams params;
};

/// One MarketSpec per market of a generated fleet, ids 0..markets-1 in
/// generation order.
[[nodiscard]] std::vector<MarketSpec> specs_from_fleet(
    const data::FleetParams& params);

struct StoreOptions {
  /// Directory holding one path-loss database file per market
  /// (market_<id>.pldb); created if missing.
  std::string db_dir;
  /// Resident-byte budget across cached markets; 0 = unbounded. The
  /// budget is a high-water target, not a hard cap: the most recently
  /// acquired market is always admitted, even when it alone exceeds the
  /// budget (a cache that cannot hold the working market is useless).
  std::size_t byte_budget = 0;
  /// Workers for database load / rebuild / save (0 = hardware).
  std::size_t threads = 0;
  /// Tilt indices every market's database must cover. Power-mode planning
  /// only reads tilt 0 (the deployment default), which keeps fleet-scale
  /// databases small.
  std::vector<radio::TiltIndex> tilts = {0};
  /// Model/propagation options used when a database must be rebuilt and
  /// when binding the analysis model.
  data::ExperimentOptions experiment;
};

/// One materialized market: regenerated topology, a path-loss provider
/// and an analysis model bound over both. The provider is the zero-copy
/// streaming MappedPathLossDatabase; an eager PathLossDatabase is held only
/// when a rebuilt database could not be saved (an unwritable db_dir).
/// Non-movable: the model holds pointers into the network and provider.
class MarketHandle {
 public:
  MarketHandle(const MarketSpec& spec, const StoreOptions& options,
               std::string db_path);
  MarketHandle(const MarketHandle&) = delete;
  MarketHandle& operator=(const MarketHandle&) = delete;

  [[nodiscard]] MarketId id() const { return spec_.id; }
  [[nodiscard]] const MarketSpec& spec() const { return spec_; }
  [[nodiscard]] const data::Market& market() const { return market_; }
  [[nodiscard]] const net::Network& network() const {
    return market_.network;
  }
  /// The bound path-loss provider (mapped or eager — see streaming()).
  [[nodiscard]] pathloss::PathLossProvider& provider();
  [[nodiscard]] model::AnalysisModel& model() { return *model_; }

  /// True when this market runs on the zero-copy streaming provider.
  [[nodiscard]] bool streaming() const { return mapped_db_ != nullptr; }
  /// Entries in the bound database (either provider kind).
  [[nodiscard]] std::size_t db_entry_count() const;
  /// Heap bytes the bound database currently pins. For a streaming market
  /// this is only the touched footprints' linear twins — the dB planes
  /// live in the file mapping and never count.
  [[nodiscard]] std::size_t db_resident_bytes() const;

  /// True when the database file was unusable (missing, corrupt, not v3,
  /// wrong grid, or incomplete for this market's sectors/tilts) and had to
  /// be rebuilt from the propagation stack.
  [[nodiscard]] bool rebuilt() const { return rebuilt_; }
  /// The load failure that forced the rebuild, empty otherwise.
  [[nodiscard]] const std::string& load_error() const { return load_error_; }

  /// Heap bytes this market pins while resident: database heap (see
  /// db_resident_bytes) plus the model's market half (frozen UE density +
  /// coverage index). Grows after a parallel evaluator builds the
  /// coverage index or a touch materializes a footprint, so the store
  /// re-samples it on every acquire.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Rung-1 residency release: frees the streaming provider's touched
  /// heap (linear twins) and marks the handle stale; returns bytes freed
  /// (0 for eager markets — their footprints are their storage). The
  /// model must not be used again until refresh() runs.
  std::size_t release_db_residency();
  /// Rematerializes released footprints (bit-identically, at their stable
  /// addresses) by re-touching every sector's current-tilt plane through
  /// the model. No-op unless a release happened since the last refresh.
  void refresh();

 private:
  MarketSpec spec_;
  data::Market market_;
  std::string db_path_;
  bool rebuilt_ = false;
  bool stale_ = false;  ///< released since last refresh()
  std::string load_error_;
  /// Exactly one of these is set; provider() returns it. db_ only when a
  /// rebuilt database could not be re-saved.
  std::unique_ptr<pathloss::PathLossDatabase> db_;
  std::unique_ptr<pathloss::MappedPathLossDatabase> mapped_db_;
  std::unique_ptr<model::AnalysisModel> model_;
};

class MarketStore {
 public:
  /// Takes the full fleet roster up front; markets materialize lazily.
  /// Creates options.db_dir if missing. Throws std::invalid_argument on
  /// duplicate market ids.
  MarketStore(std::vector<MarketSpec> specs, StoreOptions options);

  /// The handle for `id`, materializing (and possibly evicting others) on
  /// a miss. Throws std::out_of_range for an unknown id. The returned
  /// handle stays valid for the caller even if the store evicts it later.
  [[nodiscard]] std::shared_ptr<MarketHandle> acquire(MarketId id);

  /// Drops every cached handle (outstanding shared_ptrs stay valid).
  void clear();

  [[nodiscard]] bool resident(MarketId id) const {
    return resident_.contains(id);
  }
  [[nodiscard]] std::size_t resident_count() const {
    return resident_.size();
  }
  /// Bytes currently charged against the budget (last-sampled sizes).
  [[nodiscard]] std::size_t resident_bytes() const { return charged_; }
  /// Largest value resident_bytes() has reached — what an unbounded run
  /// would need, and the natural reference for choosing a budget.
  [[nodiscard]] std::size_t peak_resident_bytes() const { return peak_; }
  /// Largest charge left standing *after* budget enforcement — what the
  /// run actually held. Under a budget this stays at (or near) it even
  /// when peak_resident_bytes() reports the transient pre-enforcement
  /// spike; the streaming acceptance gate asserts on this one.
  [[nodiscard]] std::size_t enforced_peak_bytes() const {
    return enforced_peak_;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Rung-1 enforcement actions: cold streaming markets whose path-loss
  /// heap was released without evicting the market.
  [[nodiscard]] std::uint64_t releases() const { return releases_; }

  /// Re-samples every resident's bytes and re-enforces the budget. The
  /// fleet WavePlanner calls this after planning each market: the
  /// coverage index built and footprints touched *during* planning grow a
  /// market past what acquire() charged, and waiting for the next acquire
  /// would let the overshoot linger across a whole market's planning.
  void enforce_budget();

  [[nodiscard]] const std::vector<MarketSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] const MarketSpec& spec(MarketId id) const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }
  /// This market's database file path (exists only once materialized).
  [[nodiscard]] std::string db_path(MarketId id) const;

 private:
  struct Resident {
    std::shared_ptr<MarketHandle> handle;
    std::list<MarketId>::iterator lru_it;  ///< position in lru_
    std::size_t charged = 0;               ///< bytes last sampled
  };

  /// Re-samples one resident's bytes and updates the charge accounting.
  void resample(Resident& entry);
  /// Re-samples every resident (footprint touches and index builds grow
  /// markets between acquires; rung-1 releases shrink them).
  void resample_all();
  /// Two-rung budget enforcement, never touching `keep`: releases the
  /// path-loss heap of cold streaming markets LRU-back-first (rung 1),
  /// then evicts whole markets LRU-back-first (rung 2) until the charge
  /// fits or nothing else is actionable. Updates enforced_peak_.
  void evict_to_fit(MarketId keep);

  std::vector<MarketSpec> specs_;
  std::map<MarketId, std::size_t> spec_index_;
  StoreOptions options_;

  std::list<MarketId> lru_;  ///< front = most recently used
  std::map<MarketId, Resident> resident_;
  std::size_t charged_ = 0;
  std::size_t peak_ = 0;
  std::size_t enforced_peak_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t releases_ = 0;
};

}  // namespace magus::fleet
