#include "model/kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numbers>

#include "lte/amc.h"
#include "obs/metrics.h"
#include "util/simd.h"
#include "util/units.h"

namespace magus::model {

namespace vx = util::simd;

lte::Cqi cell_cqi(net::SectorId best, float best_rp_dbm, double best_mw,
                  double total_mw, double noise_mw,
                  double min_service_sinr_db) {
  // Mirrors EvalContext::sinr_db + ::cqi exactly: rp promoted to double,
  // interference floored at zero, and the no-server case flowing through
  // as -inf SINR (below every service threshold).
  const double rp_dbm = best_rp_dbm;
  double sinr = rp_dbm;
  if (best != net::kInvalidSector) {
    const double interference_mw = std::max(0.0, total_mw - best_mw);
    sinr = rp_dbm - util::mw_to_dbm(noise_mw + interference_mw);
  }
  if (sinr < min_service_sinr_db) return 0;
  return lte::sinr_to_cqi(sinr);
}

namespace {

/// Guard band (dB) around every CQI threshold and the service floor.
/// Lanes whose approximate SINR lies within it are decided by libm.
constexpr double kGuardDb = 1e-6;

/// The memo screen's constants (DESIGN.md §8). The slack taken off every
/// margin covers the float storage of d (2.6e-7 dB), the approximation's
/// error and libm's ulps (< 1e-11 dB at realistic SINRs). The shrink
/// factor, applied before the float conversion, keeps a stored margin
/// below its double even after round-to-nearest (2^-24 relative), with
/// room for the screen's products, constant and subtraction to round
/// (a few 2^-53) and for SINR rounding that grows with |SINR|. Margins
/// outside [kMemoMinDb, kMemoMaxDb] are stored as 0, so a stored margin is
/// 0 or a normal float.
constexpr double kMemoSlackDb = 2.0 * kGuardDb;
constexpr double kMemoShrink = 1.0 - 0x1p-20;
constexpr double kMemoMinDb = 1e-30;
constexpr double kMemoMaxDb = 1e30;
/// A denominator is stored only when its float copy is normal and finite.
constexpr double kFloatMin = std::numeric_limits<float>::min();
constexpr double kFloatMax = std::numeric_limits<float>::max();
/// dB per neper: 10 * log10(x) = kDbPerNeper * ln(x).
constexpr double kDbPerNeper = 10.0 / std::numbers::ln10;

/// Cells classified by the CQI kernels, the cells among them whose CQI
/// libm decided (guard-band lanes plus the scalar tail), and the cells
/// whose CQI the memo kept. Added once per kernel call; exact / cells is
/// the share of cells that still paid a log10, memo / cells the share
/// that paid neither the approximation nor libm.
[[nodiscard]] obs::Counter& cqi_cells_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("model.kernel.cqi_cells");
  return counter;
}
[[nodiscard]] obs::Counter& cqi_exact_cells_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("model.kernel.cqi_exact_cells");
  return counter;
}
[[nodiscard]] obs::Counter& cqi_memo_cells_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("model.kernel.cqi_memo_cells");
  return counter;
}

/// 10 * log10(x) from add/sub/mul/div alone, accurate to ~2e-12 dB for
/// positive normal x (DESIGN.md §8). x = m * 2^e exactly; m is folded to
/// [sqrt(1/2), sqrt(2)] (halving is exact), and
/// ln(m) = 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 3 - 2 sqrt(2), is
/// summed through s^13. Lanes outside pos_normal produce garbage that the
/// caller never uses.
inline vx::vdouble approx_db(const vx::ExpSplit& split) {
  constexpr double kDbPerOctave =
      10.0 * std::numbers::ln2 / std::numbers::ln10;
  constexpr double kDbPerAtanh = 20.0 / std::numbers::ln10;
  const vx::vdouble one = vx::set1_d(1.0);
  const vx::dmask fold =
      vx::cmp_gt_d(split.mant, vx::set1_d(std::numbers::sqrt2));
  const vx::vdouble m =
      vx::blend_d(fold, vx::mul_d(split.mant, vx::set1_d(0.5)), split.mant);
  const vx::vdouble e =
      vx::blend_d(fold, vx::add_d(split.expo, one), split.expo);
  const vx::vdouble s = vx::div_d(vx::sub_d(m, one), vx::add_d(m, one));
  const vx::vdouble s2 = vx::mul_d(s, s);
  // Estrin's scheme keeps the dependency chain short: pairs of terms in
  // s^2, combined with s^4 and s^8.
  const vx::vdouble s4 = vx::mul_d(s2, s2);
  const auto pair = [&](double a, double b) {
    return vx::add_d(vx::set1_d(a), vx::mul_d(vx::set1_d(b), s2));
  };
  const vx::vdouble low = vx::add_d(
      pair(1.0, 1.0 / 3.0), vx::mul_d(s4, pair(1.0 / 5.0, 1.0 / 7.0)));
  const vx::vdouble high = vx::add_d(
      pair(1.0 / 9.0, 1.0 / 11.0), vx::mul_d(s4, vx::set1_d(1.0 / 13.0)));
  const vx::vdouble poly = vx::add_d(low, vx::mul_d(vx::mul_d(s4, s4), high));
  return vx::add_d(vx::mul_d(e, vx::set1_d(kDbPerOctave)),
                   vx::mul_d(vx::mul_d(poly, s), vx::set1_d(kDbPerAtanh)));
}

/// The per-cell CQI over a GridState, K lanes at a time, bit-identical to
/// cell_cqi per lane. The interference floor runs in vector lanes
/// (exactly rounded, so scalar-equal), and the CQI is counted as the
/// thresholds <= SINR, which is sinr_to_cqi's "last threshold <= sinr".
///
/// The log10 inside mw_to_dbm is not computed per lane: approx_db gives
/// an SINR sinr' within ~1e-11 dB of the exact one, and the count runs on
/// sinr'. A lane keeps that count only if sinr' lies at least G inside its
/// CQI interval [edges_[q], edges_[q + 1]) and at least G from the service
/// floor: then the exact SINR is on the same side of every threshold and
/// of the floor, so the count is the exact CQI. Every other lane (an edge
/// or the floor within G, a NaN SINR, a server whose denominator is not
/// positive normal finite) is recomputed by cell_cqi, so libm decides
/// every boundary. Lanes with no server use db == 0.0, making
/// sinr = rp - 0.0 == rp bitwise (so -inf flows through below every
/// threshold, like the scalar early-out).
class CqiSweep {
 public:
  CqiSweep(const GridState& state, double noise_mw, double min_sinr_db)
      : total_mw_(state.total_mw.data()),
        best_mw_(state.best_mw.data()),
        best_(state.best.data()),
        best_rp_(state.best_rp_dbm.data()),
        noise_mw_(noise_mw),
        min_sinr_db_(min_sinr_db),
        vnoise_(vx::set1_d(noise_mw)),
        vmin_(vx::set1_d(min_sinr_db)),
        all_(vx::cmp_eq_d(vnoise_, vnoise_)) {
    const auto& thresholds = lte::cqi_sinr_thresholds_db();
    edges_.front() = -std::numeric_limits<double>::infinity();
    edges_.back() = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      vthr_[t] = vx::set1_d(thresholds[t]);
      edges_[t + 1] = thresholds[t];
    }
  }

  /// The SINR denominators of cells [i, i + K): noise + max(0, total -
  /// best_mw). max_d's "b wins on equal" rule reproduces std::max(0.0, x)
  /// exactly (+0.0 for x == ±0.0).
  [[gnu::always_inline]] vx::vdouble denom(std::size_t i) const {
    return vx::add_d(
        vnoise_, vx::max_d(vx::sub_d(vx::loadu_d(total_mw_ + i),
                                     vx::loadu_d(best_mw_ + i)),
                           vx::set1_d(0.0)));
  }

  /// The memo screen of cells [i, i + K): true when every lane keeps its
  /// memoized CQI — its rp is equal, it has a server, and
  /// kDbPerNeper * |d - d_c| < m * min(d, d_c). A NaN, zero or infinite d
  /// fails the compare, and m = 0 never passes.
  [[gnu::always_inline]] bool memo_hits(std::size_t i, vx::vdouble denom,
                                        const CqiMemo& memo) const {
    const vx::fmask same = vx::m_and(
        vx::cmp_eq_f(vx::loadu_f(best_rp_ + i),
                     vx::loadu_f(memo.rp_dbm.data() + i)),
        vx::m_not(vx::cmp_eq_i(vx::loadu_i(best_ + i),
                               vx::set1_i(net::kInvalidSector))));
    const vx::vdouble cached =
        vx::to_double(vx::loadu_f(memo.denom_mw.data() + i));
    const vx::vdouble diff = vx::sub_d(denom, cached);
    const vx::vdouble moved = vx::mul_d(vx::set1_d(kDbPerNeper),
                                        vx::max_d(diff, vx::neg_d(diff)));
    const vx::vdouble allowed =
        vx::mul_d(vx::to_double(vx::loadu_f(memo.margin_db.data() + i)),
                  vx::min_d(denom, cached));
    const vx::dmask hit =
        vx::m_and(vx::widen(same), vx::cmp_lt_d(moved, allowed));
    return vx::to_bits(hit) == (1u << vx::kWidth) - 1u;
  }

  /// CQI of cells [i, i + K) into q, given their denominators; returns how
  /// many lanes libm decided. With a memo, also refreshes the cells'
  /// entries. Forced inline: as a call it measured ~10% slower in
  /// BM_CqiLoadsKernel.
  [[gnu::always_inline]] int classify(std::size_t i, vx::vdouble denom,
                                      std::int32_t* q, CqiMemo* memo) const {
    const vx::ExpSplit split = vx::split_exp_d(denom);
    const vx::dmask no_server = vx::widen(vx::cmp_eq_i(
        vx::loadu_i(best_ + i), vx::set1_i(net::kInvalidSector)));
    const vx::vdouble db =
        vx::blend_d(no_server, vx::set1_d(0.0), approx_db(split));
    const vx::vdouble sinr =
        vx::sub_d(vx::to_double(vx::loadu_f(best_rp_ + i)), db);
    vx::vint count = vx::set1_i(0);
    for (const vx::vdouble& thr : vthr_) {
      // Each satisfied (ascending) threshold contributes +1.
      count = vx::sub_i(count,
                        vx::mask_i(vx::narrow(vx::cmp_ge_d(sinr, thr))));
    }
    // The CQI interval [edges_[count], edges_[count + 1]) holds sinr'.
    const vx::vdouble lower = vx::gather_d(edges_.data(), count, all_, 0.0);
    const vx::vdouble upper = vx::gather_d(
        edges_.data(), vx::add_i(count, vx::set1_i(1)), all_, 0.0);
    const vx::vdouble guard = vx::set1_d(kGuardDb);
    const vx::dmask near_edge =
        vx::m_or(vx::cmp_lt_d(vx::sub_d(sinr, lower), guard),
                 vx::cmp_lt_d(vx::sub_d(upper, sinr), guard));
    const vx::dmask near_floor =
        vx::m_and(vx::cmp_lt_d(vx::sub_d(sinr, vmin_), guard),
                  vx::cmp_lt_d(vx::sub_d(vmin_, sinr), guard));
    const vx::dmask exact = vx::m_or(
        vx::m_or(near_edge, near_floor),
        vx::m_or(vx::m_not(vx::cmp_eq_d(sinr, sinr)),
                 vx::m_and(vx::m_not(split.pos_normal),
                           vx::m_not(no_server))));
    // Below the service floor the scalar path returns 0 before the table.
    vx::storeu_i(q, vx::blend_i(vx::narrow(vx::cmp_lt_d(sinr, vmin_)),
                                vx::set1_i(0), count));
    if (memo != nullptr) {
      // The margin: the distance of the approximate SINR to its
      // interval's edges and to the floor, less the slack, shrunk, and
      // kept only on lanes the approximation decided for a server whose
      // d is a normal float.
      const vx::vdouble to_floor = vx::sub_d(sinr, vmin_);
      const vx::vdouble distance = vx::min_d(
          vx::min_d(vx::sub_d(sinr, lower), vx::sub_d(upper, sinr)),
          vx::max_d(to_floor, vx::neg_d(to_floor)));
      const vx::vdouble margin =
          vx::mul_d(vx::sub_d(distance, vx::set1_d(kMemoSlackDb)),
                    vx::set1_d(kMemoShrink));
      const vx::dmask keep = vx::m_and(
          vx::m_and(vx::m_not(exact), vx::m_not(no_server)),
          vx::m_and(
              vx::m_and(vx::cmp_ge_d(denom, vx::set1_d(kFloatMin)),
                        vx::cmp_le_d(denom, vx::set1_d(kFloatMax))),
              vx::m_and(vx::cmp_ge_d(margin, vx::set1_d(kMemoMinDb)),
                        vx::cmp_le_d(margin, vx::set1_d(kMemoMaxDb)))));
      vx::storeu_f(memo->rp_dbm.data() + i, vx::loadu_f(best_rp_ + i));
      vx::storeu_f(memo->denom_mw.data() + i, vx::to_float(denom));
      vx::storeu_f(memo->margin_db.data() + i,
                   vx::to_float(vx::blend_d(keep, margin, vx::set1_d(0.0))));
    }
    const unsigned bits = vx::to_bits(exact);
    if (bits == 0) return 0;
    int n = 0;
    for (int j = 0; j < vx::kWidth; ++j) {
      if ((bits >> j) & 1u) {
        q[j] = cell(i + static_cast<std::size_t>(j));
        ++n;
      }
    }
    return n;
  }

  /// The libm oracle for one cell (the scalar tail and guard-band lanes).
  [[nodiscard]] lte::Cqi cell(std::size_t i) const {
    return cell_cqi(best_[i], best_rp_[i], best_mw_[i], total_mw_[i],
                    noise_mw_, min_sinr_db_);
  }

 private:
  const double* total_mw_;
  const double* best_mw_;
  const net::SectorId* best_;
  const float* best_rp_;
  double noise_mw_;
  double min_sinr_db_;
  vx::vdouble vnoise_;
  vx::vdouble vmin_;
  vx::dmask all_;
  std::array<vx::vdouble, lte::kCqiLevels> vthr_;
  /// The thresholds padded with -inf and +inf: CQI q's interval is
  /// [edges_[q], edges_[q + 1]).
  std::array<double, lte::kCqiLevels + 2> edges_;
};

/// Runs the sweep over every cell, calling emit(cell, cqi) in cell order,
/// and reports the cell counts to the health counters.
template <class Emit>
void sweep_cqi(const GridState& state, double noise_mw, double min_sinr_db,
               Emit&& emit) {
  const CqiSweep sweep{state, noise_mw, min_sinr_db};
  const std::size_t cells = state.cells();
  constexpr std::size_t K = vx::kWidth;
  std::size_t exact = 0;
  std::int32_t q[K] = {};
  std::size_t i = 0;
  for (; i + K <= cells; i += K) {
    exact += static_cast<std::size_t>(
        sweep.classify(i, sweep.denom(i), q, nullptr));
    for (std::size_t j = 0; j < K; ++j) emit(i + j, q[j]);
  }
  exact += cells - i;
  for (; i < cells; ++i) emit(i, sweep.cell(i));
  cqi_cells_counter().add(cells);
  cqi_exact_cells_counter().add(exact);
}

}  // namespace

void cqi_kernel(const GridState& state, double noise_mw,
                double min_service_sinr_db, std::span<std::int8_t> cqi_out) {
  sweep_cqi(state, noise_mw, min_service_sinr_db,
            [&](std::size_t c, std::int32_t q) {
              cqi_out[c] = static_cast<std::int8_t>(q);
            });
}

void cqi_and_loads_kernel(const GridState& state,
                          std::span<const double> ue_density, double noise_mw,
                          double min_service_sinr_db, CqiMemo& memo,
                          std::span<double> loads_out) {
  std::fill(loads_out.begin(), loads_out.end(), 0.0);
  const std::size_t cells = state.cells();
  // The floor is compared bitwise, so a NaN floor matches itself (its
  // margins are all 0 anyway).
  const bool warm =
      memo.valid && memo.cqi.size() == cells &&
      std::bit_cast<std::uint64_t>(memo.min_service_sinr_db) ==
          std::bit_cast<std::uint64_t>(min_service_sinr_db);
  if (!warm) {
    memo.cqi.resize(cells);
    memo.rp_dbm.resize(cells);
    memo.denom_mw.resize(cells);
    memo.margin_db.resize(cells);
    memo.min_service_sinr_db = min_service_sinr_db;
  }
  const CqiSweep sweep{state, noise_mw, min_service_sinr_db};
  const net::SectorId* best = state.best.data();
  std::int8_t* cqi = memo.cqi.data();
  // Scatter-add stays scalar: two lanes may hit the same sector.
  const auto add_load = [&](std::size_t c) {
    if (cqi[c] > 0 && ue_density[c] > 0.0) {
      loads_out[static_cast<std::size_t>(best[c])] += ue_density[c];
    }
  };
  constexpr std::size_t K = vx::kWidth;
  std::size_t exact = 0;
  std::size_t reused = 0;
  std::int32_t q[K] = {};
  std::size_t i = 0;
  for (; i + K <= cells; i += K) {
    const vx::vdouble denom = sweep.denom(i);
    if (warm && sweep.memo_hits(i, denom, memo)) {
      reused += K;
    } else {
      exact += static_cast<std::size_t>(sweep.classify(i, denom, q, &memo));
      for (std::size_t j = 0; j < K; ++j) {
        cqi[i + j] = static_cast<std::int8_t>(q[j]);
      }
    }
    for (std::size_t j = 0; j < K; ++j) add_load(i + j);
  }
  // The scalar tail has no entries to screen: libm decides it every time.
  exact += cells - i;
  for (; i < cells; ++i) {
    cqi[i] = static_cast<std::int8_t>(sweep.cell(i));
    add_load(i);
  }
  memo.valid = true;
  cqi_cells_counter().add(cells);
  cqi_exact_cells_counter().add(exact);
  cqi_memo_cells_counter().add(reused);
}

void loads_kernel(const GridState& state, std::span<const double> ue_density,
                  double noise_mw, double min_service_sinr_db,
                  std::span<double> loads_out) {
  std::fill(loads_out.begin(), loads_out.end(), 0.0);
  const std::size_t cells = state.cells();
  const net::SectorId* best = state.best.data();
  const CqiSweep sweep{state, noise_mw, min_service_sinr_db};
  constexpr std::size_t K = vx::kWidth;
  std::size_t classified = 0;
  std::size_t exact = 0;
  std::int32_t q[K] = {};
  std::size_t i = 0;
  for (; i + K <= cells; i += K) {
    // Skipping no-UE / no-server chunks keeps the SINR math off empty
    // territory; the load sum is unaffected (those cells contribute
    // nothing either way), so this stays equivalent to the fused variant.
    bool any = false;
    for (std::size_t j = 0; j < K; ++j) {
      any |= ue_density[i + j] > 0.0 && best[i + j] != net::kInvalidSector;
    }
    if (!any) continue;
    classified += K;
    exact += static_cast<std::size_t>(
        sweep.classify(i, sweep.denom(i), q, nullptr));
    for (std::size_t j = 0; j < K; ++j) {
      const std::size_t c = i + j;
      if (ue_density[c] > 0.0 && best[c] != net::kInvalidSector &&
          q[j] > 0) {
        loads_out[static_cast<std::size_t>(best[c])] += ue_density[c];
      }
    }
  }
  for (; i < cells; ++i) {
    if (ue_density[i] <= 0.0 || best[i] == net::kInvalidSector) continue;
    ++classified;
    ++exact;
    if (sweep.cell(i) > 0) {
      loads_out[static_cast<std::size_t>(best[i])] += ue_density[i];
    }
  }
  cqi_cells_counter().add(classified);
  cqi_exact_cells_counter().add(exact);
}

}  // namespace magus::model
