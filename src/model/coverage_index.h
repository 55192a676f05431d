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
// Thread-safety: build on the driver thread before parallel evaluation
// begins; afterwards the index is immutable and shared read-only by every
// EvalContext clone (the same contract as the rest of MarketContext).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid_map.h"
#include "net/network.h"
#include "pathloss/database.h"
#include "radio/antenna.h"

namespace magus::model {

class CoverageIndex {
 public:
  /// The one tilt the index holds: every sector's tilt in
  /// net::Network::default_configuration.
  static constexpr radio::TiltIndex kTilt = 0;

  /// Builds the index from the provider's kTilt footprints (driver thread
  /// only). All gains are copied into the index.
  [[nodiscard]] static CoverageIndex build(
      const net::Network& network, pathloss::PathLossProvider& provider);

  [[nodiscard]] std::int32_t cell_count() const {
    return static_cast<std::int32_t>(row_start_.size()) - 1;
  }
  [[nodiscard]] std::size_t entry_count() const {
    return entry_sector_.size();
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
    const std::uint32_t first = row_start_[i];
    return {entry_sector_.data() + first, first, row_start_[i + 1] - first};
  }

  /// True when a sector at `tilt` is served by the index; a false return
  /// means the caller must probe that sector's footprint directly.
  [[nodiscard]] static bool tilt_indexed(int tilt) { return tilt == kTilt; }

  /// dB gain per global entry offset.
  [[nodiscard]] const float* gains() const { return gain_.data(); }
  /// Linear twin of gains(): 10^(gain/10) per entry, copied bit-for-bit
  /// from the footprints' precomputed linear windows, so recompute_top2
  /// re-forms a winner's mW contribution with a multiply instead of pow,
  /// bit-equal to what the sector-major sweeps added.
  [[nodiscard]] const float* linear() const { return linear_.data(); }

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
    const std::uint32_t first = row_start_[i];
    return {ranked_sector_.data() + first, ranked_col_.data() + first,
            ranked_bound_.data() + first, row_start_[i + 1] - first};
  }

  /// Raw CSR / ranked arrays for the SIMD sweeps' gathers. All row offsets
  /// and entry counts fit int32 (build() rejects more entries), so the
  /// uint32 arrays may be reinterpreted as int32 lanes.
  [[nodiscard]] const std::uint32_t* row_starts() const {
    return row_start_.data();
  }
  [[nodiscard]] const std::int32_t* ranked_sectors() const {
    return ranked_sector_.data();
  }
  [[nodiscard]] const std::uint32_t* ranked_cols() const {
    return ranked_col_.data();
  }
  [[nodiscard]] const float* ranked_bounds() const {
    return ranked_bound_.data();
  }

  /// Heap bytes held by the index (reported as the model.index.bytes
  /// gauge and by MarketContext::index_bytes()).
  [[nodiscard]] std::size_t index_bytes() const { return bytes_; }

 private:
  CoverageIndex() = default;

  std::vector<std::uint32_t> row_start_;    ///< cells + 1
  std::vector<std::int32_t> entry_sector_;  ///< ascending per row
  std::vector<float> gain_;                 ///< per entry, dB
  std::vector<float> linear_;               ///< per entry, linear
  // Ranked layout (see ranked_row): per-row permutation of the CSR span by
  // descending gain, sector id ascending on ties.
  std::vector<std::int32_t> ranked_sector_;
  std::vector<std::uint32_t> ranked_col_;
  std::vector<float> ranked_bound_;
  std::size_t bytes_ = 0;
};

}  // namespace magus::model
