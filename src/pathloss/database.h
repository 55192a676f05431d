// Path-loss providers: the interface the analysis model consumes, plus an
// in-memory database with a page-aligned binary file format (our stand-in for
// the operator's Atoll feed, which is "refreshed periodically" — §4.2) and
// two computing providers (faithful per-tilt rebuild vs the paper's
// tilt-delta approximation).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "geo/grid_map.h"
#include "net/network.h"
#include "pathloss/builder.h"
#include "pathloss/footprint.h"
#include "pathloss/format.h"
#include "pathloss/tilt_delta.h"

namespace magus::pathloss {

/// Source of L_b(T, g) matrices. Implementations may build lazily, so the
/// accessor is non-const; returned references stay valid for the provider's
/// lifetime. footprint() must be safe to call concurrently: a provider is
/// shared (via model::MarketContext) by every evaluation thread, so the
/// lazily-caching implementations serialize cache access internally.
class PathLossProvider {
 public:
  virtual ~PathLossProvider() = default;

  [[nodiscard]] virtual const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) = 0;
  [[nodiscard]] virtual const geo::GridMap& grid() const = 0;

  /// The coverage-index section stored with the footprints (see
  /// pathloss/format.h), or nullptr when the provider has none — the
  /// model then builds the index from footprint(). A provider that checks
  /// its section lazily does so here and throws std::runtime_error when it
  /// is damaged. Driver-thread only, like the index build it replaces. A
  /// decorator that does not override this hides the section, and the
  /// model builds.
  [[nodiscard]] virtual const format::IndexSection* coverage_section() {
    return nullptr;
  }
};

/// Fully materialized database, e.g. loaded from disk.
class PathLossDatabase final : public PathLossProvider {
 public:
  explicit PathLossDatabase(geo::GridMap grid);

  /// Inserts or replaces the matrix for (sector, tilt). Throws
  /// std::invalid_argument if the footprint's cell count mismatches the grid.
  void insert(net::SectorId sector, radio::TiltIndex tilt,
              SectorFootprint footprint);

  [[nodiscard]] bool contains(net::SectorId sector,
                              radio::TiltIndex tilt) const;
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Heap bytes resident across all entries (gain windows + linear twins).
  /// This is what the fleet MarketStore accounts against its byte budget —
  /// a whole-fleet footprint never has to be resident at once.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Throws std::out_of_range when the matrix is missing.
  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;

  [[nodiscard]] const geo::GridMap& grid() const override { return grid_; }

  /// Writes the v3 page-aligned format (pathloss/format.h): header +
  /// checksummed directory + page-aligned raw gain planes, with a per-entry
  /// FNV-1a checksum over geometry and gain bytes, then — when any tilt-0
  /// entry exists — the coverage-index section, built by
  /// model::CoverageIndex::build over the tilt-0 entries in ascending
  /// sector id. `threads` fans the checksums out across a util::ThreadPool
  /// (0 = hardware concurrency); the bytes are identical for any thread
  /// count. The file is written as
  /// `<path>.tmp` in the same directory and then renamed over `path`, so a
  /// MappedPathLossDatabase still open on the old file keeps reading the
  /// old bytes instead of a truncated inode. Throws std::runtime_error when
  /// the file cannot be written.
  void save(const std::string& path, std::size_t threads = 1) const;

  /// Eager load of a v3 file: a MappedPathLossDatabase open, a touch of
  /// every entry (which verifies every entry checksum), then owned copies
  /// of the touched footprints — gain windows and their linear twins —
  /// and a check of the coverage-index section, which is not kept. A
  /// truncated, bit-flipped or otherwise damaged file is rejected with a
  /// specific std::runtime_error message ("truncated header", "bad magic",
  /// "unsupported version", "oversized window", "does not fit the grid",
  /// "truncated directory", "torn payload", "trailing bytes",
  /// "checksum mismatch", "coverage index") instead of being silently
  /// mis-read into the model.
  [[nodiscard]] static PathLossDatabase load(const std::string& path);

  /// Header-and-directory summary of a v3 file, read without loading (or
  /// checksumming) any gain bytes — the same bytes, through the same
  /// format::read_v3, as a MappedPathLossDatabase open, plus the
  /// coverage-index section's header. A file that fails structurally
  /// probes as !ok with the open's message (an older version's message
  /// says to regenerate the file); checksum corruption is only caught by a
  /// touch, and a damaged section by its first request.
  struct Probe {
    bool ok = false;
    std::string error;        ///< the open's message, when !ok
    /// The header's format version (3 when ok); also set when the open
    /// failed past a valid magic, so a caller can tell an older format
    /// (< 3) from a damaged v3 file. 0 when no magic was read.
    std::uint32_t version = 0;
    std::int32_t cols = 0;
    std::int32_t rows = 0;
    double cell_size_m = 0.0;
    std::uint64_t entry_count = 0;
    std::size_t file_bytes = 0;
    /// Sum of window bytes, doubled for the in-memory linear twins — what
    /// resident_bytes() of the eagerly loaded database will roughly be.
    std::size_t resident_bytes_estimate = 0;
    /// Split of the estimate: bytes a MappedPathLossDatabase serves
    /// straight from the file mapping (the dB gain planes)...
    std::size_t mapped_bytes_estimate = 0;
    /// ...vs bytes it heap-allocates at full residency (the linear twins).
    std::size_t heap_bytes_estimate = 0;
    /// The coverage-index section: its offset and length (0 when the file
    /// has none) and its header's counts, unchecked.
    std::uint64_t index_offset = 0;
    std::uint64_t index_section_bytes = 0;
    format::IndexHeader index_header;
  };
  [[nodiscard]] static Probe probe(const std::string& path);

  /// Outcome report for load_or_rebuild.
  struct LoadReport {
    bool rebuilt = false;    ///< true when the file was unusable
    bool resaved = false;    ///< true when the rebuilt db was written back
    std::string error;       ///< the load failure message, when rebuilt
  };

  /// Loads `path`; when the file is missing, corrupted, on another grid
  /// than `fallback.grid()` or missing one of the (sector, tilt) pairs,
  /// recomputes every pair from `fallback` (e.g. a BuildingProvider over
  /// the propagation model) and best-effort re-saves the repaired database
  /// to `path`. `report`, when non-null, says what happened. `threads`
  /// applies to the rebuild (fallback.footprint is required to be
  /// concurrency-safe, per the provider contract) and the re-save; the
  /// resulting database is identical for any thread count.
  [[nodiscard]] static PathLossDatabase load_or_rebuild(
      const std::string& path, PathLossProvider& fallback,
      std::span<const net::SectorId> sectors,
      std::span<const radio::TiltIndex> tilts, LoadReport* report = nullptr,
      std::size_t threads = 1);

 private:
  using Key = std::pair<std::int32_t, std::int32_t>;

  geo::GridMap grid_;
  std::map<Key, SectorFootprint> entries_;
};

/// Computes matrices on demand from the propagation model and caches them.
/// Faithful tilt handling: each (sector, tilt) gets a full rebuild.
//
/// The cache is sharded by key with per-entry build-once semantics: a
/// lookup takes its shard's mutex only long enough to pin the entry node
/// (std::map nodes are address-stable), then builds outside any lock under
/// the entry's std::once_flag. Concurrent fetches of *different* keys
/// never serialize behind one build — a cache miss on one sector used to
/// stall every evaluation worker behind a single global mutex.
class BuildingProvider final : public PathLossProvider {
 public:
  /// `network` must outlive the provider; `builder` is copied.
  BuildingProvider(const net::Network* network, FootprintBuilder builder);

  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;
  [[nodiscard]] const geo::GridMap& grid() const override {
    return builder_.grid();
  }

  /// Builds every (sector, tilt) matrix up front across `threads` workers
  /// (0 = hardware concurrency) and installs them in the cache, so later
  /// footprint() calls are pure lookups. Per-sector jobs share radial
  /// profiles and isotropic planes across tilts (FootprintBuilder::
  /// build_tilts); entries some thread already built lazily are kept —
  /// both paths produce bitwise-identical matrices.
  void prebuild(std::span<const net::SectorId> sectors,
                std::span<const radio::TiltIndex> tilts,
                std::size_t threads = 0);

  /// Number of matrices built so far (for the ablation bench's cost story).
  [[nodiscard]] std::size_t built_count() const {
    return built_count_.load(std::memory_order_relaxed);
  }

  /// Test hook, called at the start of every cache-miss build — outside
  /// all shard locks, before any work. Lets tests stall one key's build
  /// and verify other keys stay servable. Set before sharing the provider
  /// across threads; not synchronized itself.
  void set_build_hook(
      std::function<void(net::SectorId, radio::TiltIndex)> hook) {
    build_hook_ = std::move(hook);
  }

 private:
  struct Entry {
    std::once_flag once;
    SectorFootprint footprint;
  };
  /// Cache-line-padded so concurrent lookups on different shards never
  /// false-share the mutexes.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::map<std::pair<std::int32_t, std::int32_t>, Entry> map;
  };
  static constexpr std::size_t kShardCount = 16;

  /// Pins the (stable) cache node for a key, creating it if needed. Holds
  /// the shard mutex only for the map operation, never across a build.
  [[nodiscard]] Entry& entry_for(net::SectorId sector, radio::TiltIndex tilt);

  const net::Network* network_;
  FootprintBuilder builder_;
  std::function<void(net::SectorId, radio::TiltIndex)> build_hook_;
  std::atomic<std::size_t> built_count_{0};
  std::array<Shard, kShardCount> shards_;
};

/// Paper-mode tilt approximation: tilt 0 comes from the inner provider;
/// other tilts are derived by applying one global distance-indexed delta
/// (§5). Much cheaper than per-tilt rebuilds, slightly less accurate.
class ApproxTiltProvider final : public PathLossProvider {
 public:
  /// `inner` and `network` must outlive the provider.
  ApproxTiltProvider(PathLossProvider* inner, const net::Network* network,
                     TiltDeltaModel delta_model);

  [[nodiscard]] const SectorFootprint& footprint(
      net::SectorId sector, radio::TiltIndex tilt) override;
  [[nodiscard]] const geo::GridMap& grid() const override {
    return inner_->grid();
  }

 private:
  PathLossProvider* inner_;
  const net::Network* network_;
  TiltDeltaModel delta_model_;
  std::mutex mutex_;
  std::map<std::pair<std::int32_t, std::int32_t>, SectorFootprint> cache_;
};

}  // namespace magus::pathloss
