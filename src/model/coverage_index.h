// Grid-major inverted coverage index: "which sectors cover this cell, and
// at what gain?" answered with one contiguous scan.
//
// The per-sector footprints (pathloss::SectorFootprint) are sector-major:
// ideal for applying one sector's contribution to every cell it covers, but
// the model's demotion path (EvalContext::recompute_top2) asks the inverse
// question per cell and previously had to probe every sector's window. This
// index inverts the footprints once into a CSR layout over grid cells:
//
//   row_start_[g] .. row_start_[g+1]   the cell's cover span
//   entry_sector_[e]                   covering sector ids, ascending per row
//   plane_gain_[p][e]                  gain_db at tilt plane p (NaN where the
//                                      sector does not cover the cell at
//                                      that tilt), parallel to entry_sector_
//
// One gain plane per tilt setting keeps tilt changes O(1) per entry: the
// span membership is the union of coverage over every indexed tilt, so a
// tilt swap only changes which plane a scan reads, never the span itself.
// Sectors whose current tilt is not indexed (a plane that was never built)
// are detected via a per-sector plane bitmask and handled by the caller
// with the legacy footprint probe.
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

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/grid_map.h"
#include "net/network.h"
#include "pathloss/database.h"
#include "radio/antenna.h"

namespace magus::model {

struct CoverageIndexOptions {
  /// Tilt planes to materialize per sector: every tilt within this many
  /// steps of the sector's default-configuration tilt, clamped to the
  /// antenna range. 0 (the default) indexes only the default tilt, which
  /// costs no extra footprint builds — those matrices are materialized by
  /// the model's first rebuild anyway. Larger radii pre-build the extra
  /// footprints eagerly, which pays off for long tilt-heavy searches.
  int tilt_radius = 0;
};

class CoverageIndex {
 public:
  /// Builds the index from the provider's footprints (driver thread only).
  /// `network` and `provider` must outlive nothing here — all gains are
  /// copied into the index.
  [[nodiscard]] static CoverageIndex build(
      const net::Network& network, pathloss::PathLossProvider& provider,
      const CoverageIndexOptions& options = {});

  [[nodiscard]] std::int32_t cell_count() const {
    return static_cast<std::int32_t>(row_start_.size()) - 1;
  }
  [[nodiscard]] std::size_t entry_count() const {
    return entry_sector_.size();
  }
  /// Number of tilt planes spanned (built or not); plane p holds tilt
  /// tilt_lo() + p.
  [[nodiscard]] int plane_count() const {
    return static_cast<int>(plane_ptr_.size());
  }
  [[nodiscard]] int tilt_lo() const { return tilt_lo_; }
  [[nodiscard]] int tilt_hi() const {
    return tilt_lo_ + plane_count() - 1;
  }

  /// The cover span of one cell. `first` is the global entry offset of the
  /// row, so gain lookups are plane[first + k] for the k-th sector.
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

  /// True when (sector, tilt) was materialized into a plane. A false
  /// return means the index knows nothing about that combination and the
  /// caller must fall back to probing the footprint directly.
  [[nodiscard]] bool sector_tilt_indexed(net::SectorId sector,
                                         int tilt) const {
    const int p = tilt - tilt_lo_;
    if (p < 0 || p >= plane_count()) return false;
    return ((sector_planes_[static_cast<std::size_t>(sector)] >> p) & 1u) !=
           0;
  }

  /// Gain plane for (sector, tilt): a pointer indexable by global entry
  /// offset, or nullptr when that combination is not indexed. NaN entries
  /// mean "covered at some indexed tilt, but not this one".
  [[nodiscard]] const float* plane_gains(net::SectorId sector,
                                         int tilt) const {
    const int p = tilt - tilt_lo_;
    if (p < 0 || p >= plane_count() ||
        ((sector_planes_[static_cast<std::size_t>(sector)] >> p) & 1u) ==
            0) {
      return nullptr;
    }
    return plane_ptr_[static_cast<std::size_t>(p)];
  }

  /// Linear twin of plane_gains: 10^(gain/10) per entry (0 where the dB
  /// plane is NaN), copied bit-for-bit from the footprints' precomputed
  /// linear windows, so recompute_top2 re-forms a winner's mW contribution
  /// with a multiply instead of pow, bit-equal to what the sector-major
  /// sweeps added.
  [[nodiscard]] const float* plane_linear(net::SectorId sector,
                                          int tilt) const {
    const int p = tilt - tilt_lo_;
    if (p < 0 || p >= plane_count() ||
        ((sector_planes_[static_cast<std::size_t>(sector)] >> p) & 1u) ==
            0) {
      return nullptr;
    }
    return plane_mw_ptr_[static_cast<std::size_t>(p)];
  }

  /// The gain planes as one contiguous slab: plane p occupies
  /// [p * plane_stride(), (p+1) * plane_stride()), indexed by global entry
  /// offset within the plane. The SIMD sweeps gather from these with a
  /// single int32 index (plane_slab_offset(sector, tilt) + entry), which is
  /// why the planes are flattened instead of separately allocated.
  [[nodiscard]] const float* slab_gains() const { return slab_gain_.data(); }
  /// Linear twin of slab_gains (same layout, 10^(gain/10), 0 where NaN).
  [[nodiscard]] const float* slab_linear() const { return slab_mw_.data(); }
  [[nodiscard]] std::size_t plane_stride() const { return plane_stride_; }

  /// Offset of (sector, tilt)'s plane into the slabs — add the global entry
  /// offset to index slab_gains()/slab_linear() — or -1 when that
  /// combination is not indexed. Fits int32 by construction (build()
  /// rejects slabs past 2^31 entries).
  [[nodiscard]] std::int32_t plane_slab_offset(net::SectorId sector,
                                               int tilt) const {
    const int p = tilt - tilt_lo_;
    if (p < 0 || p >= plane_count() ||
        ((sector_planes_[static_cast<std::size_t>(sector)] >> p) & 1u) ==
            0) {
      return -1;
    }
    return static_cast<std::int32_t>(static_cast<std::size_t>(p) *
                                     plane_stride_);
  }

  /// The cover span of one cell reordered by descending gain bound: entry
  /// k's bound is the sector's strongest gain at this cell across its
  /// built planes, so power_cap + bounds[k] bounds every received power
  /// from entry k onward. A top-2 scan may stop at the first k whose
  /// bound falls strictly below the current runner-up — top-2 under a
  /// strict total order is enumeration-order independent, so the early
  /// exit returns exactly the full scan's result. cols[k] is the global
  /// entry offset for plane lookups (ties in the bound order by ascending
  /// sector id, keeping the layout deterministic).
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
  /// and entry counts fit int32 (the slab guard bounds total entries), so
  /// the uint32 arrays may be reinterpreted as int32 lanes.
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
  std::vector<float> slab_gain_;  ///< [plane * stride + entry], dB
  std::vector<float> slab_mw_;    ///< [plane * stride + entry], linear
  std::size_t plane_stride_ = 0;  ///< entries per plane (== entry_count())
  std::vector<const float*> plane_ptr_;     ///< dB plane data (into slab)
  std::vector<const float*> plane_mw_ptr_;  ///< linear plane data (into slab)
  std::vector<std::uint64_t> sector_planes_;  ///< built-plane bitmask
  // Ranked layout (see ranked_row): per-row permutation of the CSR span by
  // descending max-plane gain, sector id ascending on ties.
  std::vector<std::int32_t> ranked_sector_;
  std::vector<std::uint32_t> ranked_col_;
  std::vector<float> ranked_bound_;
  int tilt_lo_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace magus::model
