// Per-sector path-loss matrix over the analysis grid.
//
// This is the in-memory form of one Atoll-style path-loss matrix L_b(T, g)
// (paper §4.2): one value per grid cell, in dB of *gain* (negative; received
// power = transmit power + gain). Cells whose gain falls below a floor are
// treated as uncovered — at the floor the strongest permissible transmit
// power still lands far under the noise floor, so such cells can affect
// neither signal nor interference.
//
// Storage is *windowed dense*: a footprint keeps only the bounding window
// of its covered cells (a sector's reach is bounded by its range cutoff,
// while the analysis grid spans the whole market), with NaN marking
// uncovered cells inside the window. Lookups stay O(1) and memory scales
// with sector reach instead of market size — essential for urban markets
// with >1000 sectors.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geo/grid_map.h"

namespace magus::pathloss {

/// What one linear-twin pass did: covered (non-NaN) cells converted, and
/// how many of them libm decided (see linear_twin).
struct LinearTwinCounts {
  std::size_t covered = 0;
  std::size_t exact = 0;
};

/// The dB -> linear twin of a gain window: linear[i] = 0 where gains[i] is
/// NaN (uncovered), else exactly static_cast<float>(std::pow(10.0,
/// double(gains[i]) / 10.0)) — bitwise the libm value. A vector
/// approximation of 10^y (double-double y·ln10, range reduction by ln 2, a
/// degree-12 series; relative error below 2^-45) only picks which float
/// the result rounds to, and only where the approximation lies more than
/// 2^-40 relative from every float midpoint: both ends of that band round
/// to one float, and libm's double lies inside it, so libm would round to
/// the same float. Every other covered lane — inside the band, or with
/// |y| > 30 — is computed by libm and counted in `exact`.
LinearTwinCounts linear_twin(const float* gains, float* linear,
                             std::size_t n);

class SectorFootprint {
 public:
  /// Gains at or below this are treated as "no coverage".
  static constexpr float kFloorDb = -170.0f;

  SectorFootprint() = default;

  /// Builds from a dense gain vector covering the *whole* grid
  /// (grid_cols x grid_rows entries, row-major; NaN or <= kFloorDb =
  /// uncovered). The covered bounding window is extracted automatically.
  SectorFootprint(std::vector<float> full_dense, std::int32_t grid_cols,
                  std::int32_t grid_rows);

  /// Deserialization constructor: an explicit window placed at
  /// (col0, row0) within a grid_cols x grid_rows grid.
  SectorFootprint(std::int32_t grid_cols, std::int32_t grid_rows,
                  std::int32_t col0, std::int32_t row0,
                  std::int32_t window_cols, std::int32_t window_rows,
                  std::vector<float> window);

  /// Zero-copy deserialization constructor: the gain window is *borrowed*
  /// from caller-owned memory (an mmap'd v3 database page) that must
  /// outlive the footprint, and is never written to — only the 10^(g/10)
  /// linear twin is computed into the heap. The borrowed window must be
  /// canonical (uncovered cells already NaN): a finite value at or below
  /// kFloorDb would have been floored in place by the owning constructors,
  /// which a read-only mapping cannot do, so it is rejected with
  /// std::invalid_argument instead.
  SectorFootprint(std::int32_t grid_cols, std::int32_t grid_rows,
                  std::int32_t col0, std::int32_t row0,
                  std::int32_t window_cols, std::int32_t window_rows,
                  const float* borrowed_window);

  // The window view must track the owned storage across copies (a copy
  // gets its own storage; a borrowed copy keeps aliasing the caller's
  // memory). Moves transfer the heap buffer, so the view stays valid.
  SectorFootprint(const SectorFootprint& other);
  SectorFootprint& operator=(const SectorFootprint& other);
  SectorFootprint(SectorFootprint&&) noexcept = default;
  SectorFootprint& operator=(SectorFootprint&&) noexcept = default;
  ~SectorFootprint() = default;

  /// True when the gain window aliases caller-owned (e.g. mapped) memory.
  [[nodiscard]] bool borrowed() const { return borrowed_; }

  /// A copy that owns its gain window: a borrowed window is copied into
  /// the heap, the linear twin is copied as is (never recomputed).
  [[nodiscard]] SectorFootprint to_owned() const;

  /// Total cells of the underlying grid (not the window).
  [[nodiscard]] std::size_t cell_count() const {
    return static_cast<std::size_t>(grid_cols_) *
           static_cast<std::size_t>(grid_rows_);
  }

  [[nodiscard]] bool covers(geo::GridIndex g) const {
    const std::int32_t col = g % grid_cols_ - col0_;
    const std::int32_t row = g / grid_cols_ - row0_;
    if (col < 0 || col >= window_cols_ || row < 0 || row >= window_rows_) {
      return false;
    }
    return !std::isnan(view_[static_cast<std::size_t>(row) * window_cols_ +
                             col]);
  }

  /// Path gain (negative dB). Requires covers(g).
  [[nodiscard]] float gain_db(geo::GridIndex g) const {
    const std::int32_t col = g % grid_cols_ - col0_;
    const std::int32_t row = g / grid_cols_ - row0_;
    return view_[static_cast<std::size_t>(row) * window_cols_ + col];
  }

  /// Gain, or -infinity when uncovered (convenient for max comparisons).
  [[nodiscard]] double gain_or_ninf_db(geo::GridIndex g) const {
    if (!covers(g)) return -std::numeric_limits<double>::infinity();
    return gain_db(g);
  }

  /// Calls f(grid_index, gain_db) for every covered cell. The analysis
  /// model's hot loop.
  template <typename F>
  void for_each_covered(F&& f) const {
    for (std::int32_t row = 0; row < window_rows_; ++row) {
      const geo::GridIndex base = (row0_ + row) * grid_cols_ + col0_;
      const float* line = view_ + static_cast<std::size_t>(row) * window_cols_;
      for (std::int32_t col = 0; col < window_cols_; ++col) {
        if (!std::isnan(line[col])) f(base + col, line[col]);
      }
    }
  }

  /// Calls f(grid_index, gain_db, linear_gain) for every covered cell,
  /// where linear_gain = 10^(gain/10) comes from the precomputed linear
  /// window. Received power in mW is then one multiply
  /// (10^(P/10) * linear_gain) instead of one pow per cell — the hoisted
  /// dBm->mW conversion the model's contribution sweeps run on.
  template <typename F>
  void for_each_covered_linear(F&& f) const {
    for (std::int32_t row = 0; row < window_rows_; ++row) {
      const geo::GridIndex base = (row0_ + row) * grid_cols_ + col0_;
      const std::size_t off = static_cast<std::size_t>(row) * window_cols_;
      const float* line = view_ + off;
      const float* lin = linear_.data() + off;
      for (std::int32_t col = 0; col < window_cols_; ++col) {
        if (!std::isnan(line[col])) f(base + col, line[col], lin[col]);
      }
    }
  }

  /// Linear-domain gain 10^(gain/10) at g. Requires covers(g).
  [[nodiscard]] float linear_gain(geo::GridIndex g) const {
    const std::int32_t col = g % grid_cols_ - col0_;
    const std::int32_t row = g / grid_cols_ - row0_;
    return linear_[static_cast<std::size_t>(row) * window_cols_ + col];
  }
  /// Linear-domain gain, or 0 when uncovered (zero received power).
  [[nodiscard]] double linear_or_zero(geo::GridIndex g) const {
    if (!covers(g)) return 0.0;
    return linear_gain(g);
  }

  [[nodiscard]] std::size_t covered_count() const { return covered_count_; }

  /// Heap bytes held by this footprint — the unit the fleet MarketStore
  /// charges against its byte budget. An owned footprint holds the gain
  /// window plus its linear twin; a borrowed one holds only the linear
  /// twin (the dB window lives in the file mapping, reclaimable by the OS).
  [[nodiscard]] std::size_t resident_bytes() const {
    return (window_.capacity() + linear_.capacity()) * sizeof(float);
  }

  /// One window row as a raw span (NaN = uncovered) plus the grid index of
  /// its first cell: the grid-major export the coverage-index builder
  /// sweeps, equivalent to for_each_covered but without the per-cell
  /// callback. Rows ascend in grid order, so consumers that scan rows
  /// 0..window_rows() visit covered cells in ascending grid index.
  [[nodiscard]] std::span<const float> window_row(std::int32_t row) const {
    return {view_ + static_cast<std::size_t>(row) * window_cols_,
            static_cast<std::size_t>(window_cols_)};
  }
  /// Linear twin of window_row (0 = uncovered), aligned cell-for-cell.
  [[nodiscard]] std::span<const float> linear_row(std::int32_t row) const {
    return {linear_.data() + static_cast<std::size_t>(row) * window_cols_,
            static_cast<std::size_t>(window_cols_)};
  }
  [[nodiscard]] geo::GridIndex row_first_cell(std::int32_t row) const {
    return (row0_ + row) * grid_cols_ + col0_;
  }

  /// Strongest gain in the footprint, or -infinity if empty.
  [[nodiscard]] double peak_gain_db() const;

  // Window geometry + raw storage, for serialization.
  [[nodiscard]] std::int32_t grid_cols() const { return grid_cols_; }
  [[nodiscard]] std::int32_t grid_rows() const { return grid_rows_; }
  [[nodiscard]] std::int32_t col0() const { return col0_; }
  [[nodiscard]] std::int32_t row0() const { return row0_; }
  [[nodiscard]] std::int32_t window_cols() const { return window_cols_; }
  [[nodiscard]] std::int32_t window_rows() const { return window_rows_; }
  [[nodiscard]] std::span<const float> window() const {
    return {view_, static_cast<std::size_t>(window_cols_) *
                       static_cast<std::size_t>(window_rows_)};
  }

 private:
  void apply_floor_and_count();
  void count_borrowed_and_build_linear();
  /// Fills linear_ from the (floored) gain window through linear_twin and
  /// sets covered_count_.
  void build_linear();

  std::int32_t grid_cols_ = 0;
  std::int32_t grid_rows_ = 0;
  std::int32_t col0_ = 0;
  std::int32_t row0_ = 0;
  std::int32_t window_cols_ = 0;
  std::int32_t window_rows_ = 0;
  std::size_t covered_count_ = 0;
  bool borrowed_ = false;
  /// Owned gain storage; empty in borrowed mode.
  std::vector<float> window_;
  /// The window all accessors read: window_.data() when owned, the
  /// caller's (mapped) memory when borrowed, nullptr when empty.
  const float* view_ = nullptr;
  /// 10^(gain/10) per window cell (0 where uncovered), built once at
  /// construction by linear_twin — bitwise the libm value — so every mW
  /// sweep replaces pow with a multiply.
  std::vector<float> linear_;
};

}  // namespace magus::pathloss
