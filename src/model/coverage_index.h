// Grid-major inverted coverage index: "which sectors cover this cell, and
// at what gain?" answered with one contiguous scan.
//
// The per-sector footprints (pathloss::SectorFootprint) are sector-major:
// ideal for applying one sector's contribution to every cell it covers, but
// the model's demotion path (EvalContext::recompute_top2) asks the inverse
// question per cell and previously had to probe every sector's window. This
// index inverts each sector's default-tilt footprint (kTilt) once into a CSR
// layout over grid cells:
//
//   row_start_[g] .. row_start_[g+1]   the cell's cover span
//   entry_sector_[e]                   covering sector ids, ascending per row
//   gain_[e] / linear_[e]              the sector's gain at the cell, dB and
//                                      its 10^(gain/10) twin
//
// Every entry is a covered cell, so no gain is ever NaN. A sector whose
// current tilt is not kTilt is invisible to the index; the caller probes
// its footprint directly instead.
//
// Entries are stored in ascending sector id per row, which keeps the layout
// deterministic. No floating-point accumulation runs in that order: every
// full rebuild is the sector-major footprint sweep, and the index serves
// only top-2 re-ranking, whose result under beats() (stronger signal, then
// lower id) is a strict total order and so independent of scan order.
//
// Storage: the index is a view over seven arrays. A build() owns them in
// its own vectors; a bind() reads them in place from a path-loss file's
// coverage-index section (pathloss/format.h), which
// PathLossDatabase::save() writes from this same builder — so a bound
// index equals a built one byte for byte, and index_bytes() reads the same.
//
// Thread-safety: build on the driver thread before parallel evaluation
// begins; afterwards the index is immutable and shared read-only by every
// EvalContext clone (the same contract as the rest of MarketContext).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/grid_map.h"
#include "net/network.h"
#include "pathloss/database.h"
#include "pathloss/format.h"
#include "radio/antenna.h"

namespace magus::model {

class CoverageIndex {
 public:
  /// The one tilt the index holds: every sector's tilt in
  /// net::Network::default_configuration.
  static constexpr radio::TiltIndex kTilt = pathloss::format::kIndexTilt;

  /// Builds the index from the provider's kTilt footprints of every
  /// network sector (driver thread only). All gains are copied into the
  /// index.
  [[nodiscard]] static CoverageIndex build(
      const net::Network& network, pathloss::PathLossProvider& provider);
  /// Builds the index over `footprints[i]`, the kTilt footprint of
  /// `sectors[i]`, on a grid_cols x grid_rows grid. Sector ids must be
  /// strictly ascending (std::invalid_argument otherwise). This is the
  /// builder PathLossDatabase::save() runs over its tilt-0 entries.
  [[nodiscard]] static CoverageIndex build(
      std::span<const net::SectorId> sectors,
      std::span<const pathloss::SectorFootprint* const> footprints,
      std::int32_t grid_cols, std::int32_t grid_rows);
  /// Binds a checked coverage-index section zero-copy: the index reads the
  /// section's arrays in place, so their owner (the path-loss provider)
  /// must outlive it.
  [[nodiscard]] static CoverageIndex bind(
      const pathloss::format::IndexSection& section);
  /// True when `section` was built over exactly the network's sectors, in
  /// order — the one case where binding it equals building.
  [[nodiscard]] static bool binds_to(
      const pathloss::format::IndexSection& section,
      const net::Network& network);

  CoverageIndex(CoverageIndex&&) noexcept = default;
  CoverageIndex& operator=(CoverageIndex&&) noexcept = default;
  CoverageIndex(const CoverageIndex&) = delete;
  CoverageIndex& operator=(const CoverageIndex&) = delete;

  /// True when the arrays live in a path-loss file, not in this object (a
  /// build always owns at least the one-element row_start).
  [[nodiscard]] bool bound() const { return storage_.row_start.empty(); }
  /// The seven arrays as a section view; `sectors` is the bound section's
  /// list, empty after a build.
  [[nodiscard]] const pathloss::format::IndexSection& arrays() const {
    return view_;
  }

  [[nodiscard]] std::int32_t cell_count() const {
    return static_cast<std::int32_t>(view_.row_start.size()) - 1;
  }
  [[nodiscard]] std::size_t entry_count() const {
    return view_.entry_sector.size();
  }

  /// The cover span of one cell. `first` is the global entry offset of the
  /// row, so gain lookups are gains()[first + k] for the k-th sector.
  struct Row {
    const std::int32_t* sectors = nullptr;
    std::uint32_t first = 0;
    std::uint32_t size = 0;
  };
  [[nodiscard]] Row row(geo::GridIndex g) const {
    const auto i = static_cast<std::size_t>(g);
    const std::uint32_t first = view_.row_start[i];
    return {view_.entry_sector.data() + first, first,
            view_.row_start[i + 1] - first};
  }

  /// True when a sector at `tilt` is served by the index; a false return
  /// means the caller must probe that sector's footprint directly.
  [[nodiscard]] static bool tilt_indexed(int tilt) { return tilt == kTilt; }

  /// dB gain per global entry offset.
  [[nodiscard]] const float* gains() const { return view_.gain.data(); }
  /// Linear twin of gains(): 10^(gain/10) per entry, copied bit-for-bit
  /// from the footprints' precomputed linear windows, so recompute_top2
  /// re-forms a winner's mW contribution with a multiply instead of pow,
  /// bit-equal to what the sector-major sweeps added.
  [[nodiscard]] const float* linear() const { return view_.linear.data(); }

  /// The cover span of one cell reordered by descending gain, sector id
  /// ascending on ties: power_cap + bounds[k] bounds every received power
  /// from entry k onward. A top-2 scan may stop at the first k whose bound
  /// falls strictly below the current runner-up — top-2 under a strict
  /// total order is enumeration-order independent, so the early exit
  /// returns exactly the full scan's result. bounds[k] is the entry's gain,
  /// gains()[cols[k]]; cols[k] is its global entry offset.
  struct RankedRow {
    const std::int32_t* sectors = nullptr;
    const std::uint32_t* cols = nullptr;
    const float* bounds = nullptr;
    std::uint32_t size = 0;
  };
  [[nodiscard]] RankedRow ranked_row(geo::GridIndex g) const {
    const auto i = static_cast<std::size_t>(g);
    const std::uint32_t first = view_.row_start[i];
    return {view_.ranked_sector.data() + first,
            view_.ranked_col.data() + first,
            view_.ranked_bound.data() + first,
            view_.row_start[i + 1] - first};
  }

  /// Raw CSR / ranked arrays for the SIMD sweeps' gathers. All row offsets
  /// and entry counts fit int32 (build() and the section check reject
  /// more entries), so the uint32 arrays may be reinterpreted as int32
  /// lanes.
  [[nodiscard]] const std::uint32_t* row_starts() const {
    return view_.row_start.data();
  }
  [[nodiscard]] const std::int32_t* ranked_sectors() const {
    return view_.ranked_sector.data();
  }
  [[nodiscard]] const std::uint32_t* ranked_cols() const {
    return view_.ranked_col.data();
  }
  [[nodiscard]] const float* ranked_bounds() const {
    return view_.ranked_bound.data();
  }

  /// Bytes of the seven arrays, whether built into the heap or bound from
  /// a file (reported as the model.index.bytes gauge and by
  /// MarketContext::index_bytes(); the fleet store charges it either way).
  [[nodiscard]] std::size_t index_bytes() const {
    return view_.array_bytes();
  }

 private:
  CoverageIndex() = default;
  /// Sets the model.index.bytes / model.index.entries gauges.
  void publish_gauges() const;

  /// A build's own arrays; empty when bound.
  struct Storage {
    std::vector<std::uint32_t> row_start;    ///< cells + 1
    std::vector<std::int32_t> entry_sector;  ///< ascending per row
    std::vector<float> gain;                 ///< per entry, dB
    std::vector<float> linear;               ///< per entry, linear
    // Ranked layout (see ranked_row): per-row permutation of the CSR span
    // by descending gain, sector id ascending on ties.
    std::vector<std::int32_t> ranked_sector;
    std::vector<std::uint32_t> ranked_col;
    std::vector<float> ranked_bound;
  };
  Storage storage_;
  /// What every accessor reads: storage_'s arrays, or a file's section.
  /// Moving the index moves storage_'s heap buffers, so the view stays
  /// valid.
  pathloss::format::IndexSection view_;
};

}  // namespace magus::model
