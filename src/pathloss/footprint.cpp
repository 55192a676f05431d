#include "pathloss/footprint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/simd.h"

namespace magus::pathloss {

SectorFootprint::SectorFootprint(std::vector<float> full_dense,
                                 std::int32_t grid_cols,
                                 std::int32_t grid_rows)
    : grid_cols_(grid_cols), grid_rows_(grid_rows) {
  if (full_dense.size() != static_cast<std::size_t>(grid_cols) *
                               static_cast<std::size_t>(grid_rows)) {
    throw std::invalid_argument("SectorFootprint: dense size mismatch");
  }
  // Find the bounding window of covered cells.
  std::int32_t min_col = grid_cols;
  std::int32_t max_col = -1;
  std::int32_t min_row = grid_rows;
  std::int32_t max_row = -1;
  for (std::int32_t row = 0; row < grid_rows; ++row) {
    for (std::int32_t col = 0; col < grid_cols; ++col) {
      const float v =
          full_dense[static_cast<std::size_t>(row) * grid_cols + col];
      if (std::isnan(v) || v <= kFloorDb) continue;
      min_col = std::min(min_col, col);
      max_col = std::max(max_col, col);
      min_row = std::min(min_row, row);
      max_row = std::max(max_row, row);
    }
  }
  if (max_col < min_col) {  // empty footprint
    col0_ = row0_ = 0;
    window_cols_ = window_rows_ = 0;
    return;
  }
  col0_ = min_col;
  row0_ = min_row;
  window_cols_ = max_col - min_col + 1;
  window_rows_ = max_row - min_row + 1;
  window_.resize(static_cast<std::size_t>(window_cols_) * window_rows_);
  for (std::int32_t row = 0; row < window_rows_; ++row) {
    const auto* src = full_dense.data() +
                      static_cast<std::size_t>(row0_ + row) * grid_cols +
                      col0_;
    std::copy(src, src + window_cols_,
              window_.begin() + static_cast<std::size_t>(row) * window_cols_);
  }
  view_ = window_.data();
  apply_floor_and_count();
}

SectorFootprint::SectorFootprint(std::int32_t grid_cols,
                                 std::int32_t grid_rows, std::int32_t col0,
                                 std::int32_t row0, std::int32_t window_cols,
                                 std::int32_t window_rows,
                                 std::vector<float> window)
    : grid_cols_(grid_cols),
      grid_rows_(grid_rows),
      col0_(col0),
      row0_(row0),
      window_cols_(window_cols),
      window_rows_(window_rows),
      window_(std::move(window)) {
  if (window_.size() != static_cast<std::size_t>(window_cols_) *
                            static_cast<std::size_t>(window_rows_)) {
    throw std::invalid_argument("SectorFootprint: window size mismatch");
  }
  if (col0_ < 0 || row0_ < 0 || col0_ + window_cols_ > grid_cols_ ||
      row0_ + window_rows_ > grid_rows_) {
    throw std::invalid_argument("SectorFootprint: window outside grid");
  }
  view_ = window_.data();
  apply_floor_and_count();
}

SectorFootprint::SectorFootprint(std::int32_t grid_cols,
                                 std::int32_t grid_rows, std::int32_t col0,
                                 std::int32_t row0, std::int32_t window_cols,
                                 std::int32_t window_rows,
                                 const float* borrowed_window)
    : grid_cols_(grid_cols),
      grid_rows_(grid_rows),
      col0_(col0),
      row0_(row0),
      window_cols_(window_cols),
      window_rows_(window_rows),
      borrowed_(true),
      view_(borrowed_window) {
  if (window_cols_ < 0 || window_rows_ < 0) {
    throw std::invalid_argument("SectorFootprint: window size mismatch");
  }
  if (col0_ < 0 || row0_ < 0 || col0_ + window_cols_ > grid_cols_ ||
      row0_ + window_rows_ > grid_rows_) {
    throw std::invalid_argument("SectorFootprint: window outside grid");
  }
  if (view_ == nullptr &&
      static_cast<std::size_t>(window_cols_) * window_rows_ != 0) {
    throw std::invalid_argument("SectorFootprint: null borrowed window");
  }
  count_borrowed_and_build_linear();
}

SectorFootprint::SectorFootprint(const SectorFootprint& other)
    : grid_cols_(other.grid_cols_),
      grid_rows_(other.grid_rows_),
      col0_(other.col0_),
      row0_(other.row0_),
      window_cols_(other.window_cols_),
      window_rows_(other.window_rows_),
      covered_count_(other.covered_count_),
      borrowed_(other.borrowed_),
      window_(other.window_),
      view_(other.borrowed_ ? other.view_ : window_.data()),
      linear_(other.linear_) {
  if (!borrowed_ && window_.empty()) view_ = nullptr;
}

SectorFootprint& SectorFootprint::operator=(const SectorFootprint& other) {
  if (this != &other) *this = SectorFootprint{other};  // copy, then move
  return *this;
}

SectorFootprint SectorFootprint::to_owned() const {
  SectorFootprint copy{*this};
  if (copy.borrowed_) {
    const std::span<const float> gains = window();
    copy.window_.assign(gains.begin(), gains.end());
    copy.view_ = copy.window_.empty() ? nullptr : copy.window_.data();
    copy.borrowed_ = false;
  }
  return copy;
}

void SectorFootprint::apply_floor_and_count() {
  namespace vx = util::simd;
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  covered_count_ = 0;
  linear_.assign(window_.size(), 0.0f);
  constexpr std::size_t K = vx::kWidth;
  const vx::vfloat vfloor = vx::set1_f(kFloorDb);
  const vx::vfloat vnan = vx::set1_f(nan);
  std::size_t i = 0;
  for (; i + K <= window_.size(); i += K) {
    // v <= kFloorDb is an ordered compare — false for NaN lanes — so the
    // scalar !isnan(v) guard is already implied by the mask.
    const vx::vfloat v = vx::loadu_f(window_.data() + i);
    const vx::vfloat floored =
        vx::blend_f(vx::cmp_le_f(v, vfloor), vnan, v);
    vx::storeu_f(window_.data() + i, floored);
    unsigned bits = vx::to_bits(vx::m_not(vx::isnan_f(floored)));
    covered_count_ += std::popcount(bits);
    // The dB -> linear pow stays scalar (libm transcendental), one call
    // per covered lane. Same expression as util::dbm_to_mw, hoisted to
    // construction time: one pow here saves one per rebuild/mutation
    // sweep forever after.
    while (bits != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      linear_[i + lane] = static_cast<float>(
          std::pow(10.0, static_cast<double>(window_[i + lane]) / 10.0));
    }
  }
  for (; i < window_.size(); ++i) {
    float& v = window_[i];
    if (!std::isnan(v) && v <= kFloorDb) v = nan;
    if (!std::isnan(v)) {
      ++covered_count_;
      linear_[i] = static_cast<float>(
          std::pow(10.0, static_cast<double>(v) / 10.0));
    }
  }
}

void SectorFootprint::count_borrowed_and_build_linear() {
  namespace vx = util::simd;
  const std::size_t total = static_cast<std::size_t>(window_cols_) *
                            static_cast<std::size_t>(window_rows_);
  covered_count_ = 0;
  linear_.assign(total, 0.0f);
  // Same covered-count + linear-twin pass as apply_floor_and_count, minus
  // the floor store: the borrowed window is read-only (it aliases a
  // PROT_READ mapping). A lane where v <= kFloorDb is an ordered compare —
  // a *finite* sub-floor gain — which the owning constructors would have
  // floored to NaN in place; its presence means the bytes were not written
  // by save(), so reject rather than silently diverge from the eager load.
  constexpr std::size_t K = vx::kWidth;
  const vx::vfloat vfloor = vx::set1_f(kFloorDb);
  std::size_t i = 0;
  for (; i + K <= total; i += K) {
    const vx::vfloat v = vx::loadu_f(view_ + i);
    if (vx::to_bits(vx::cmp_le_f(v, vfloor)) != 0) {
      throw std::invalid_argument(
          "SectorFootprint: non-canonical borrowed window (unfloored gain)");
    }
    unsigned bits = vx::to_bits(vx::m_not(vx::isnan_f(v)));
    covered_count_ += std::popcount(bits);
    while (bits != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      linear_[i + lane] = static_cast<float>(
          std::pow(10.0, static_cast<double>(view_[i + lane]) / 10.0));
    }
  }
  for (; i < total; ++i) {
    const float v = view_[i];
    if (!std::isnan(v) && v <= kFloorDb) {
      throw std::invalid_argument(
          "SectorFootprint: non-canonical borrowed window (unfloored gain)");
    }
    if (!std::isnan(v)) {
      ++covered_count_;
      linear_[i] = static_cast<float>(
          std::pow(10.0, static_cast<double>(v) / 10.0));
    }
  }
}

double SectorFootprint::peak_gain_db() const {
  double peak = -std::numeric_limits<double>::infinity();
  for_each_covered([&](geo::GridIndex, float gain) {
    peak = std::max(peak, static_cast<double>(gain));
  });
  return peak;
}

}  // namespace magus::pathloss
