#include "pathloss/footprint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/simd.h"

namespace magus::pathloss {

namespace {

// 10^y = 2^n · e^r with y·ln 10 = n·ln 2 + r, |r| <= ln 2 / 2 (plus a few
// ulp). ln 10 is carried as kLn10 + kLn10Lo, and kLn10 as the 26-bit
// halves kLn10H + kLn10L, so y·kLn10 splits exactly into p + e (Dekker's
// product). kLn2Hi has 21 trailing zero bits, so n·kLn2Hi is exact for
// every |n| <= 100 the |y| <= 30 range can produce.
constexpr double kLn10 = 0x1.26bb1bbb55516p+1;
constexpr double kLn10Lo = -0x1.f48ad494ea3e9p-53;
constexpr double kLn10H = 0x1.26bb1b8000000p+1;
constexpr double kLn10L = 0x1.daaa8b0000000p-26;
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
/// Adding and subtracting 1.5·2^52 rounds a |x| < 2^51 to an integer.
constexpr double kRoundMagic = 0x1.8p52;
/// Veltkamp splitter 2^27 + 1: the high half keeps 26 significant bits.
constexpr double kSplitter = 134217729.0;
/// The approximation serves |y| <= 30 (gains within ±300 dB).
constexpr double kMaxAbsY = 30.0;
/// Guard band: a lane keeps the approximation's float only if both
/// z·(1 ∓ 2^-40) round to it.
constexpr double kGuardLo = 1.0 - 0x1p-40;
constexpr double kGuardHi = 1.0 + 0x1p-40;

/// e^r for |r| <= 0.35: the Taylor series through r^12 in Horner form
/// (truncation below 2^-51 relative).
inline util::simd::vdouble exp_series(util::simd::vdouble r) {
  namespace vx = util::simd;
  constexpr double kCoeff[13] = {1.0,
                                 1.0,
                                 1.0 / 2.0,
                                 1.0 / 6.0,
                                 1.0 / 24.0,
                                 1.0 / 120.0,
                                 1.0 / 720.0,
                                 1.0 / 5040.0,
                                 1.0 / 40320.0,
                                 1.0 / 362880.0,
                                 1.0 / 3628800.0,
                                 1.0 / 39916800.0,
                                 1.0 / 479001600.0};
  vx::vdouble q = vx::set1_d(kCoeff[12]);
  for (int k = 11; k >= 0; --k) {
    q = vx::add_d(vx::mul_d(q, r), vx::set1_d(kCoeff[k]));
  }
  return q;
}

/// The libm expression every linear twin must equal bitwise.
inline float libm_linear(float gain) {
  return static_cast<float>(
      std::pow(10.0, static_cast<double>(gain) / 10.0));
}

}  // namespace

LinearTwinCounts linear_twin(const float* gains, float* linear,
                             std::size_t n) {
  namespace vx = util::simd;
  constexpr std::size_t K = vx::kWidth;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  LinearTwinCounts counts;
  for (std::size_t i = 0; i < n; i += K) {
    // The last block loads its missing lanes as NaN (uncovered) and stores
    // only the live ones, so there is no scalar tail.
    const int live = static_cast<int>(std::min(K, n - i));
    const vx::vfloat g = vx::loadu_f_partial(gains + i, live, nan);
    const vx::fmask covered = vx::m_not(vx::isnan_f(g));
    unsigned cov_bits = vx::to_bits(covered);
    if (cov_bits == 0) {
      vx::storeu_f_partial(linear + i, vx::set1_f(0.0f), live);
      continue;
    }
    counts.covered += static_cast<std::size_t>(std::popcount(cov_bits));
    // y is libm's own argument: the same rounded double(g) / 10.
    const vx::vdouble y = vx::div_d(vx::to_double(g), vx::set1_d(10.0));
    const vx::dmask in_range =
        vx::m_and(vx::cmp_ge_d(y, vx::set1_d(-kMaxAbsY)),
                  vx::cmp_le_d(y, vx::set1_d(kMaxAbsY)));
    // p + e == y·kLn10 exactly; s_lo adds y·kLn10Lo.
    const vx::vdouble c = vx::mul_d(y, vx::set1_d(kSplitter));
    const vx::vdouble yh = vx::sub_d(c, vx::sub_d(c, y));
    const vx::vdouble yl = vx::sub_d(y, yh);
    const vx::vdouble p = vx::mul_d(y, vx::set1_d(kLn10));
    const vx::vdouble e = vx::add_d(
        vx::add_d(vx::add_d(vx::sub_d(vx::mul_d(yh, vx::set1_d(kLn10H)), p),
                            vx::mul_d(yh, vx::set1_d(kLn10L))),
                  vx::mul_d(yl, vx::set1_d(kLn10H))),
        vx::mul_d(yl, vx::set1_d(kLn10L)));
    const vx::vdouble s_lo = vx::add_d(e, vx::mul_d(y, vx::set1_d(kLn10Lo)));
    // n = round(p / ln 2); out-of-range lanes are clamped to 0 so pow2_d
    // stays in its domain (their result is discarded below).
    const vx::vdouble magic = vx::set1_d(kRoundMagic);
    const vx::vdouble nk = vx::blend_d(
        in_range,
        vx::sub_d(vx::add_d(vx::mul_d(p, vx::set1_d(kInvLn2)), magic), magic),
        vx::set1_d(0.0));
    const vx::vdouble r = vx::add_d(
        vx::sub_d(vx::sub_d(p, vx::mul_d(nk, vx::set1_d(kLn2Hi))),
                  vx::mul_d(nk, vx::set1_d(kLn2Lo))),
        s_lo);
    const vx::vdouble z = vx::mul_d(exp_series(r), vx::pow2_d(nk));
    const vx::vfloat f_lo = vx::to_float(vx::mul_d(z, vx::set1_d(kGuardLo)));
    const vx::vfloat f_hi = vx::to_float(vx::mul_d(z, vx::set1_d(kGuardHi)));
    const vx::fmask keep =
        vx::m_and(vx::narrow(in_range), vx::cmp_eq_f(f_lo, f_hi));
    vx::storeu_f_partial(linear + i, vx::blend_f(keep, f_lo, vx::set1_f(0.0f)),
                         live);
    unsigned exact_bits = cov_bits & ~vx::to_bits(keep);
    counts.exact += static_cast<std::size_t>(std::popcount(exact_bits));
    while (exact_bits != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(exact_bits));
      exact_bits &= exact_bits - 1;
      linear[i + lane] = libm_linear(gains[i + lane]);
    }
  }
  return counts;
}

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
  constexpr std::size_t K = vx::kWidth;
  const vx::vfloat vfloor = vx::set1_f(kFloorDb);
  const vx::vfloat vnan = vx::set1_f(nan);
  std::size_t i = 0;
  for (; i + K <= window_.size(); i += K) {
    // v <= kFloorDb is an ordered compare — false for NaN lanes — so the
    // scalar !isnan(v) guard is already implied by the mask.
    const vx::vfloat v = vx::loadu_f(window_.data() + i);
    vx::storeu_f(window_.data() + i,
                 vx::blend_f(vx::cmp_le_f(v, vfloor), vnan, v));
  }
  for (; i < window_.size(); ++i) {
    float& v = window_[i];
    if (!std::isnan(v) && v <= kFloorDb) v = nan;
  }
  build_linear();
}

void SectorFootprint::count_borrowed_and_build_linear() {
  namespace vx = util::simd;
  const std::size_t total = static_cast<std::size_t>(window_cols_) *
                            static_cast<std::size_t>(window_rows_);
  // The borrowed window is read-only (it aliases a PROT_READ mapping), so
  // there is no floor store: a lane where v <= kFloorDb is an ordered
  // compare — a *finite* sub-floor gain — which the owning constructors
  // would have floored to NaN in place; its presence means the bytes were
  // not written by save(), so reject rather than silently diverge from the
  // eager load.
  constexpr std::size_t K = vx::kWidth;
  const vx::vfloat vfloor = vx::set1_f(kFloorDb);
  std::size_t i = 0;
  bool sub_floor = false;
  for (; i + K <= total; i += K) {
    sub_floor |= vx::any(vx::cmp_le_f(vx::loadu_f(view_ + i), vfloor));
  }
  for (; i < total; ++i) sub_floor |= view_[i] <= kFloorDb;
  if (sub_floor) {
    throw std::invalid_argument(
        "SectorFootprint: non-canonical borrowed window (unfloored gain)");
  }
  build_linear();
}

void SectorFootprint::build_linear() {
  static obs::Counter& cells =
      obs::MetricsRegistry::global().counter("pathloss.linear.cells");
  static obs::Counter& exact =
      obs::MetricsRegistry::global().counter("pathloss.linear.exact_cells");
  const std::size_t total = static_cast<std::size_t>(window_cols_) *
                            static_cast<std::size_t>(window_rows_);
  linear_.assign(total, 0.0f);
  const LinearTwinCounts counts = linear_twin(view_, linear_.data(), total);
  covered_count_ = counts.covered;
  cells.add(counts.covered);
  exact.add(counts.exact);
}

double SectorFootprint::peak_gain_db() const {
  double peak = -std::numeric_limits<double>::infinity();
  for_each_covered([&](geo::GridIndex, float gain) {
    peak = std::max(peak, static_cast<double>(gain));
  });
  return peak;
}

}  // namespace magus::pathloss
