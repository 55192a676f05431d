#include "model/eval_context.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "lte/amc.h"
#include "lte/bandwidth.h"
#include "model/coverage_index.h"
#include "model/kernels.h"
#include "model/simd_sweeps.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/units.h"

namespace magus::model {

namespace {
/// Strict server ordering with a deterministic tie-break: stronger signal
/// wins; at exactly equal received power the lower sector id wins, so the
/// incremental updates and a full rebuild always agree (co-sited sectors
/// can tie exactly when both land on the same pattern-loss cap).
[[nodiscard]] bool beats(float rp_a, net::SectorId a, float rp_b,
                         net::SectorId b) {
  if (rp_a != rp_b) return rp_a > rp_b;
  return a < b;
}

/// Cells re-ranked through recompute_top2's footprint fallback (index
/// bound, some active sector away from the indexed tilt): the health
/// counter for searches that keep tilting sectors off the index. Added
/// once per mutation, like model.kernel.recompute_cells.
[[nodiscard]] obs::Counter& offindex_recomputes() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "model.kernel.offindex_recomputes");
  return counter;
}
}  // namespace

EvalContext::EvalContext(const MarketContext* market) : market_(market) {
  if (market_ == nullptr) {
    throw std::invalid_argument("EvalContext: market must not be null");
  }
  // Exact-capacity reservation up front: every later reset() in a full
  // rebuild then reuses the same allocations.
  state_.reserve(static_cast<std::size_t>(market_->cell_count()));
  obs::MetricsRegistry::global()
      .gauge("model.kernel.simd_lanes")
      .set(static_cast<double>(util::simd::kWidth));
  config_ = network().default_configuration();
  rebuild();
}

void EvalContext::bind_coverage_index() {
  index_ = market_->coverage_index();
  if (index_ == nullptr) {
    throw std::logic_error(
        "EvalContext::bind_coverage_index: build the market's coverage "
        "index first (MarketContext::ensure_coverage_index)");
  }
  sync_index_bookkeeping();
}

void EvalContext::sync_index_bookkeeping() {
  off_index_sectors_.clear();
  if (index_ == nullptr) return;
  // Refresh the flat per-sector mirrors in the same pass. O(sectors) is
  // noise next to the O(cells) state copies on every code path that calls
  // this, and it keeps the span scans free of Configuration/index gathers.
  const std::size_t sector_count = network().sector_count();
  on_index_.assign(sector_count, 0);
  if (sector_power_.size() != sector_count) {
    // NaN sentinel compares unequal to every real power, forcing the first
    // plin fill below.
    sector_power_.assign(sector_count,
                         std::numeric_limits<double>::quiet_NaN());
    sector_plin_.assign(sector_count, 0.0);
  }
  double cap = -std::numeric_limits<double>::infinity();
  for (const auto& sector : network().sectors()) {
    const auto& setting = config_[sector.id];
    const auto s = static_cast<std::size_t>(sector.id);
    if (sector_power_[s] != setting.power_dbm) {
      // Lazy pow: restore()/set_tilt() resync every mutation, but a
      // sector's power rarely changes between syncs.
      sector_power_[s] = setting.power_dbm;
      sector_plin_[s] = util::dbm_to_mw(setting.power_dbm);
    }
    if (!setting.active) continue;
    if (CoverageIndex::tilt_indexed(setting.tilt)) {
      on_index_[s] = 1;
      cap = std::max(cap, setting.power_dbm);
    } else {
      off_index_sectors_.push_back(sector.id);
    }
  }
  power_cap_ = cap;
}

void EvalContext::set_configuration(const net::Configuration& config) {
  if (config.size() != network().sector_count()) {
    throw std::invalid_argument(
        "EvalContext::set_configuration: size mismatch");
  }
  config_ = config;
  rebuild();
}

void EvalContext::rebuild() {
  // Full rebuilds are the expensive model operation (every sector's
  // footprint re-applied); incremental set_power/set_tilt paths stay
  // uninstrumented — they are the per-candidate hot path.
  MAGUS_TRACE_SPAN("model.rebuild", "model");
  static obs::Counter& rebuilds =
      obs::MetricsRegistry::global().counter("model.rebuilds");
  rebuilds.add(1);
  state_.reset(static_cast<std::size_t>(cell_count()));
  current_footprint_.assign(network().sector_count(), nullptr);
  for (const auto& sector : network().sectors()) {
    current_footprint_[static_cast<std::size_t>(sector.id)] =
        &market_->provider().footprint(sector.id, config_[sector.id].tilt);
  }
  // Re-fetch the market's index: a configuration reset is the safe point
  // to pick up an index the market rebuilt since this context bound it.
  // The mirrors sync_index_bookkeeping refreshes feed the incremental
  // paths, not this sector-major sweep.
  if (index_ != nullptr) index_ = market_->coverage_index();
  sync_index_bookkeeping();
  for (const auto& sector : network().sectors()) {
    const auto& setting = config_[sector.id];
    if (setting.active) {
      add_contribution(sector.id, footprint_of(sector.id), setting.power_dbm);
    }
  }
  invalidate_loads();
}

void EvalContext::add_contribution(
    net::SectorId sector, const pathloss::SectorFootprint& footprint,
    double power_dbm) {
  // One hoisted dBm->mW conversion per sweep: cell contribution in mW is
  // 10^(P/10) * 10^(gain/10), with the second factor precomputed in the
  // footprint's linear window. remove_contribution, set_power and
  // recompute_top2 form the identical product, so contributions cancel
  // exactly. The
  // per-cell work runs in the SIMD row sweep — bit-identical to the old
  // for_each_covered_linear loop (see simd_sweeps.h).
  const double p_lin = util::dbm_to_mw(power_dbm);
  const sweeps::StateView view = sweeps::view_of(state_);
  static obs::Counter& cells_swept =
      obs::MetricsRegistry::global().counter("model.kernel.add_cells");
  std::size_t swept = 0;
  for (std::int32_t r = 0; r < footprint.window_rows(); ++r) {
    const std::span<const float> line = footprint.window_row(r);
    const std::span<const float> lin = footprint.linear_row(r);
    sweeps::add_row(view,
                    static_cast<std::size_t>(footprint.row_first_cell(r)),
                    line.data(), lin.data(),
                    static_cast<std::int32_t>(line.size()), sector,
                    power_dbm, p_lin);
    swept += line.size();
  }
  cells_swept.add(swept);
  invalidate_loads();
}

void EvalContext::remove_contribution(
    net::SectorId sector, const pathloss::SectorFootprint& footprint,
    double power_dbm) {
  const double p_lin = util::dbm_to_mw(power_dbm);
  const sweeps::StateView view = sweeps::view_of(state_);
  static obs::Counter& cells_swept =
      obs::MetricsRegistry::global().counter("model.kernel.remove_cells");
  std::vector<geo::GridIndex>& demoted = recompute_scratch_;
  demoted.clear();
  std::size_t swept = 0;
  for (std::int32_t r = 0; r < footprint.window_rows(); ++r) {
    const std::span<const float> line = footprint.window_row(r);
    const std::span<const float> lin = footprint.linear_row(r);
    const geo::GridIndex first = footprint.row_first_cell(r);
    sweeps::remove_row(view, static_cast<std::size_t>(first), line.data(),
                       lin.data(), static_cast<std::int32_t>(line.size()),
                       sector, p_lin, first, demoted);
    swept += line.size();
  }
  cells_swept.add(swept);
  rerank_deferred(demoted);
  invalidate_loads();
}

void EvalContext::rerank_deferred(const std::vector<geo::GridIndex>& cells) {
  // Deferring the re-ranks out of a sweep is order-equivalent to the
  // interleaved scalar loop: recompute_top2 reads only immutable
  // index/config data and the per-sector mirrors (never the cell's top-2
  // state) and writes only that cell's top-2 fields, and the sweep visits
  // each cell once (simd_sweeps.h).
  static obs::Counter& recomputes =
      obs::MetricsRegistry::global().counter("model.kernel.recompute_cells");
  recomputes.add(cells.size());
  // Fetched up front so the counter is listed, at 0, in every report.
  obs::Counter& offindex = offindex_recomputes();
  if (index_ != nullptr && off_index_sectors_.empty()) {
    recompute_top2_batch(cells);
  } else {
    // Off-index re-ranks stay scalar: each probes the off-index sectors'
    // footprints, and a batched variant measured slower.
    if (!off_index_sectors_.empty()) offindex.add(cells.size());
    for (const geo::GridIndex g : cells) recompute_top2(g);
  }
}

void EvalContext::recompute_top2(geo::GridIndex g) {
  // Top-2 selection under beats() is a strict total order, so the result
  // is independent of enumeration order: the CSR span scan, its off-index
  // fallback pass, and the unbound all-sectors probe all produce the same
  // (best, second) bit-for-bit.
  // kFootprintCol marks a winner offered from a footprint probe (fallback
  // or unbound path) rather than an index entry; the mW factor then comes
  // from the footprint's linear window instead of the index's.
  constexpr std::uint32_t kFootprintCol =
      std::numeric_limits<std::uint32_t>::max();
  net::SectorId best = net::kInvalidSector;
  float best_rp = kNoSignalDbm;
  std::uint32_t best_col = kFootprintCol;
  net::SectorId second = net::kInvalidSector;
  float second_rp = kNoSignalDbm;
  const auto offer = [&](net::SectorId s, float rp, std::uint32_t col) {
    if (beats(rp, s, best_rp, best)) {
      second = best;
      second_rp = best_rp;
      best = s;
      best_rp = rp;
      best_col = col;
    } else if (beats(rp, s, second_rp, second)) {
      second = s;
      second_rp = rp;
    }
  };
  if (index_ != nullptr) {
    // Ranked scan with early exit: entries arrive in descending gain
    // order, and power_cap_ + bounds[k] majorizes every received power
    // from entry k on. Once that bound falls strictly below the current
    // runner-up nothing later can enter the top-2, so the scan stops —
    // typically after a handful of entries. float rounding is monotone, so
    // comparing the float-rounded bound keeps the exit exact: any later
    // rp rounds to at most the rounded bound, which is < second_rp.
    // on_index_[s] == 0 folds "inactive" and "off-index" into one branch;
    // the fallback pass below covers the off-index sectors.
    const CoverageIndex::RankedRow row = index_->ranked_row(g);
    const float* gains = index_->gains();
    const std::int32_t* on_index = on_index_.data();
    const double* power = sector_power_.data();
    const double cap = power_cap_;
    for (std::uint32_t k = 0; k < row.size; ++k) {
      if (static_cast<float>(cap + row.bounds[k]) < second_rp) break;
      const auto s = static_cast<std::size_t>(row.sectors[k]);
      if (on_index[s] == 0) continue;
      offer(row.sectors[k], static_cast<float>(power[s] + gains[row.cols[k]]),
            row.cols[k]);
    }
    // Sectors away from the indexed tilt are invisible to the span scan;
    // probe their footprints directly. Every path that changes a sector's
    // activity or tilt resyncs the list before it can recompute, so the
    // list is never missing a sector here; the loop still re-checks both
    // predicates, so a stale extra entry would be skipped, not offered.
    for (const net::SectorId s : off_index_sectors_) {
      const auto& setting = config_[s];
      if (!setting.active || CoverageIndex::tilt_indexed(setting.tilt)) {
        continue;
      }
      const auto& fp = footprint_of(s);
      if (!fp.covers(g)) continue;
      offer(s, static_cast<float>(setting.power_dbm + fp.gain_db(g)),
            kFootprintCol);
    }
  } else {
    for (const auto& sector : network().sectors()) {
      const auto& setting = config_[sector.id];
      if (!setting.active) continue;
      const auto& fp = footprint_of(sector.id);
      if (!fp.covers(g)) continue;
      offer(sector.id,
            static_cast<float>(setting.power_dbm + fp.gain_db(g)),
            kFootprintCol);
    }
  }
  const auto i = static_cast<std::size_t>(g);
  // Re-form the winner's exact contribution: dbm_to_mw is deterministic
  // and the linear factor is the same stored float the accumulation used,
  // so this product is bit-identical to what total_mw absorbed.
  double best_mw = 0.0;
  if (best != net::kInvalidSector) {
    const auto b = static_cast<std::size_t>(best);
    // sector_plin_ caches exactly dbm_to_mw(sector_power_[b]), so reading
    // the mirror instead of re-running pow keeps the product bit-equal.
    const double p_lin = index_ != nullptr
                             ? sector_plin_[b]
                             : util::dbm_to_mw(config_[best].power_dbm);
    const double lin =
        best_col != kFootprintCol
            ? static_cast<double>(index_->linear()[best_col])
            : static_cast<double>(footprint_of(best).linear_gain(g));
    best_mw = p_lin * lin;
  }
  state_.best[i] = best;
  state_.best_rp_dbm[i] = best_rp;
  state_.best_mw[i] = best_mw;
  state_.second[i] = second;
  state_.second_rp_dbm[i] = second_rp;
}

void EvalContext::recompute_top2_batch(
    const std::vector<geo::GridIndex>& cells) {
  // Vector twin of recompute_top2's ranked scan: lane j re-ranks
  // cells[idx + j]. The early exit stays exact per lane — bounds descend
  // within a row and the runner-up only strengthens, so
  // float(cap + bound) < second_rp is monotone in k and the live mask
  // recomputed each step never readmits an exited lane. Callers guarantee
  // the pure index fast path (index_ bound, off_index_sectors_ empty), so
  // the footprint fallback pass never applies here.
  namespace vx = util::simd;
  constexpr std::int32_t K = vx::kWidth;
  const auto m = static_cast<std::int32_t>(cells.size());
  const auto* row_start =
      reinterpret_cast<const std::int32_t*>(index_->row_starts());
  const std::int32_t* rsec = index_->ranked_sectors();
  const auto* rcol =
      reinterpret_cast<const std::int32_t*>(index_->ranked_cols());
  const float* rbound = index_->ranked_bounds();
  const float* gains = index_->gains();
  const float* linear = index_->linear();
  const std::int32_t* on_index = on_index_.data();
  const double* power = sector_power_.data();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  const vx::vdouble vcap = vx::set1_d(power_cap_);
  std::int32_t idx = 0;
  for (; idx + K <= m; idx += K) {
    const vx::vint vg = vx::loadu_i(cells.data() + idx);
    const vx::fmask all = vx::cmp_eq_i(vg, vg);
    const vx::vint vfirst = vx::gather_i(row_start, vg, all, 0);
    const vx::vint vnext =
        vx::gather_i(row_start, vx::add_i(vg, vx::set1_i(1)), all, 0);
    const vx::vint vsize = vx::sub_i(vnext, vfirst);
    vx::vint bid = vx::set1_i(net::kInvalidSector);
    vx::vfloat brp = vx::set1_f(kNoSignalDbm);
    vx::vfloat blin = vx::set1_f(0.0f);
    vx::vint sid = vx::set1_i(net::kInvalidSector);
    vx::vfloat srp = vx::set1_f(kNoSignalDbm);
    for (std::int32_t k = 0;; ++k) {
      const vx::fmask in_row = vx::cmp_gt_i(vsize, vx::set1_i(k));
      if (!vx::any(in_row)) break;
      const vx::vint e = vx::add_i(vfirst, vx::set1_i(k));
      const vx::vfloat bound = vx::gather_f(rbound, e, in_row, kNoSignalDbm);
      const vx::vfloat capb =
          vx::to_float(vx::add_d(vcap, vx::to_double(bound)));
      const vx::fmask live =
          vx::m_and(in_row, vx::m_not(vx::cmp_lt_f(capb, srp)));
      if (!vx::any(live)) break;
      const vx::vint s = vx::gather_i(rsec, e, live, 0);
      const vx::vint col = vx::gather_i(rcol, e, live, 0);
      const vx::vint on = vx::gather_i(on_index, s, live, 0);
      const vx::fmask has = vx::m_and(live, vx::cmp_gt_i(on, vx::set1_i(0)));
      const vx::vfloat gain = vx::gather_f(gains, col, has, qnan);
      const vx::vdouble pw = vx::gather_d(power, s, vx::widen(has), 0.0);
      const vx::vfloat rp =
          vx::to_float(vx::add_d(pw, vx::to_double(gain)));
      const vx::vfloat linf = vx::gather_f(linear, col, has, 0.0f);
      const vx::fmask bb =
          vx::m_or(vx::cmp_gt_f(rp, brp),
                   vx::m_and(vx::cmp_eq_f(rp, brp), vx::cmp_gt_i(bid, s)));
      const vx::fmask bs = vx::m_and(
          vx::m_not(bb),
          vx::m_or(vx::cmp_gt_f(rp, srp),
                   vx::m_and(vx::cmp_eq_f(rp, srp), vx::cmp_gt_i(sid, s))));
      sid = vx::blend_i(bb, bid, vx::blend_i(bs, s, sid));
      srp = vx::blend_f(bb, brp, vx::blend_f(bs, rp, srp));
      bid = vx::blend_i(bb, s, bid);
      brp = vx::blend_f(bb, rp, brp);
      blin = vx::blend_f(bb, linf, blin);
    }
    for (std::int32_t j = 0; j < K; ++j) {
      const auto i = static_cast<std::size_t>(
          cells[static_cast<std::size_t>(idx + j)]);
      const net::SectorId b = vx::extract_i(bid, j);
      // Re-form the winner's exact contribution from the plin mirror and
      // the same linear float the accumulation used (see recompute_top2).
      double best_mw = 0.0;
      if (b != net::kInvalidSector) {
        best_mw = sector_plin_[static_cast<std::size_t>(b)] *
                  static_cast<double>(vx::extract_f(blin, j));
      }
      state_.best[i] = b;
      state_.best_rp_dbm[i] = vx::extract_f(brp, j);
      state_.best_mw[i] = best_mw;
      state_.second[i] = vx::extract_i(sid, j);
      state_.second_rp_dbm[i] = vx::extract_f(srp, j);
    }
  }
  for (; idx < m; ++idx) {
    recompute_top2(cells[static_cast<std::size_t>(idx)]);
  }
}

void EvalContext::set_power(net::SectorId sector, double power_dbm) {
  const net::Sector& meta = network().sector(sector);
  const double clamped = meta.clamp_power(power_dbm);
  auto& setting = config_[sector];
  const double old_power = setting.power_dbm;
  if (clamped == old_power) return;
  setting.power_dbm = clamped;
  if (index_ != nullptr) {
    // Keep the power mirrors current before the sweep: recompute_top2
    // reads them for the changed sector's new received power. The cap only
    // ratchets up here — after a decrease it is conservatively stale-high
    // (fewer early exits, same results) until the next full sync.
    sector_power_[static_cast<std::size_t>(sector)] = clamped;
    sector_plin_[static_cast<std::size_t>(sector)] = util::dbm_to_mw(clamped);
    power_cap_ = std::max(power_cap_, clamped);
  }
  if (!setting.active) return;  // config changed; no radio contribution

  // Both received powers are formed as float(power + gain) — the exact
  // expression rebuild()/add_contribution use — so the stored per-grid rp
  // values stay bit-identical to a from-scratch rebuild at the new
  // configuration (the equivalence tests rely on this). The mW delta uses
  // the same hoisted 10^(P/10) * linear products as add/remove, so the
  // old contribution cancels exactly. The per-cell rules run in the SIMD
  // power_row sweep; the cells it cannot update in place are re-ranked
  // after it.
  const auto& fp = footprint_of(sector);
  const double old_plin = util::dbm_to_mw(old_power);
  const double new_plin = util::dbm_to_mw(clamped);
  const bool decreasing = clamped < old_power;
  const sweeps::StateView view = sweeps::view_of(state_);
  std::vector<geo::GridIndex>& rerank = recompute_scratch_;
  rerank.clear();
  for (std::int32_t r = 0; r < fp.window_rows(); ++r) {
    const std::span<const float> line = fp.window_row(r);
    const geo::GridIndex first = fp.row_first_cell(r);
    sweeps::power_row(view, static_cast<std::size_t>(first), line.data(),
                      fp.linear_row(r).data(),
                      static_cast<std::int32_t>(line.size()), sector, clamped,
                      old_plin, new_plin, decreasing, first, rerank);
  }
  rerank_deferred(rerank);
  invalidate_loads();
}

void EvalContext::set_active(net::SectorId sector, bool active) {
  auto& setting = config_[sector];
  if (setting.active == active) return;
  setting.active = active;
  // Mirrors must reflect the flip before the sweep: remove_contribution's
  // recompute_top2 calls read on_index_ to skip the demoted sector.
  sync_index_bookkeeping();
  const auto& fp = footprint_of(sector);
  if (active) {
    add_contribution(sector, fp, setting.power_dbm);
  } else {
    remove_contribution(sector, fp, setting.power_dbm);
  }
}

void EvalContext::set_tilt(net::SectorId sector, int tilt_index) {
  const net::Sector& meta = network().sector(sector);
  const radio::TiltIndex clamped = meta.clamp_tilt(tilt_index);
  auto& setting = config_[sector];
  if (clamped == setting.tilt) return;
  const pathloss::SectorFootprint& old_fp = footprint_of(sector);
  const pathloss::SectorFootprint& new_fp =
      market_->provider().footprint(sector, clamped);
  setting.tilt = clamped;
  current_footprint_[static_cast<std::size_t>(sector)] = &new_fp;
  // Mirrors first: a re-rank queued by the sweep must see the sector at
  // its new tilt (on the index, or on the off-index list).
  sync_index_bookkeeping();
  if (setting.active) swap_contribution(sector, old_fp, new_fp);
}

void EvalContext::swap_contribution(net::SectorId sector,
                                    const pathloss::SectorFootprint& old_fp,
                                    const pathloss::SectorFootprint& new_fp) {
  // One sweep over the union of the two windows replaces remove → re-rank
  // → add. Per row the union splits into column segments held by the old
  // window only (remove_row), by both (swap_row) or by the new one only
  // (add_row); each keeps the three-step path's arithmetic per cell, and
  // top-2 under beats() is a strict total order, so updating in place
  // where the sector keeps its slot and re-ranking the rest with the
  // sector at its new gain gives that path's state bit for bit
  // (DESIGN.md §8).
  const double power_dbm = config_[sector].power_dbm;
  const double p_lin = util::dbm_to_mw(power_dbm);
  const sweeps::StateView view = sweeps::view_of(state_);
  std::vector<geo::GridIndex>& rerank = recompute_scratch_;
  rerank.clear();
  static obs::Counter& cells_swept =
      obs::MetricsRegistry::global().counter("model.kernel.swap_cells");
  std::size_t swept = 0;

  // The grid columns [lo, hi) a footprint's window holds in one grid row
  // (empty when the window does not reach the row).
  struct Span {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    [[nodiscard]] bool holds(std::int32_t x) const {
      return lo <= x && x < hi;
    }
  };
  const auto cols_in_row = [](const pathloss::SectorFootprint& fp,
                              std::int32_t row) {
    if (row < fp.row0() || row >= fp.row0() + fp.window_rows()) return Span{};
    return Span{fp.col0(), fp.col0() + fp.window_cols()};
  };
  // Column x of a grid row inside a footprint's window and linear twin.
  const auto gains_at = [](const pathloss::SectorFootprint& fp,
                           std::int32_t row, std::int32_t x) {
    return fp.window_row(row - fp.row0()).data() + (x - fp.col0());
  };
  const auto linear_at = [](const pathloss::SectorFootprint& fp,
                            std::int32_t row, std::int32_t x) {
    return fp.linear_row(row - fp.row0()).data() + (x - fp.col0());
  };
  // Grid rows either window reaches; an empty window (0 rows) reaches
  // none and must not widen the range.
  std::int32_t row_lo = std::numeric_limits<std::int32_t>::max();
  std::int32_t row_hi = std::numeric_limits<std::int32_t>::min();
  for (const pathloss::SectorFootprint* fp : {&old_fp, &new_fp}) {
    if (fp->window_rows() > 0) {
      row_lo = std::min(row_lo, fp->row0());
      row_hi = std::max(row_hi, fp->row0() + fp->window_rows());
    }
  }
  const std::int32_t grid_cols = new_fp.grid_cols();
  for (std::int32_t row = row_lo; row < row_hi; ++row) {
    const Span old_cols = cols_in_row(old_fp, row);
    const Span new_cols = cols_in_row(new_fp, row);
    // Segments in ascending column order, so queued cells stay in grid
    // order.
    std::int32_t cuts[4] = {old_cols.lo, old_cols.hi, new_cols.lo,
                            new_cols.hi};
    std::sort(cuts, cuts + 4);
    for (int k = 0; k < 3; ++k) {
      const std::int32_t x = cuts[k];
      const std::int32_t n = cuts[k + 1] - x;
      const bool old_here = old_cols.holds(x);
      const bool new_here = new_cols.holds(x);
      if (n <= 0 || !(old_here || new_here)) continue;  // empty, or a gap
      const geo::GridIndex first = row * grid_cols + x;
      const auto base = static_cast<std::size_t>(first);
      if (old_here && new_here) {
        sweeps::swap_row(view, base, gains_at(old_fp, row, x),
                         linear_at(old_fp, row, x), gains_at(new_fp, row, x),
                         linear_at(new_fp, row, x), n, sector, power_dbm,
                         p_lin, first, rerank);
      } else if (old_here) {
        sweeps::remove_row(view, base, gains_at(old_fp, row, x),
                           linear_at(old_fp, row, x), n, sector, p_lin, first,
                           rerank);
      } else {
        sweeps::add_row(view, base, gains_at(new_fp, row, x),
                        linear_at(new_fp, row, x), n, sector, power_dbm,
                        p_lin);
      }
      swept += static_cast<std::size_t>(n);
    }
  }
  cells_swept.add(swept);
  rerank_deferred(rerank);
  invalidate_loads();
}

void EvalContext::retouch_footprints() {
  for (const auto& sector : network().sectors()) {
    current_footprint_[static_cast<std::size_t>(sector.id)] =
        &market_->provider().footprint(sector.id, config_[sector.id].tilt);
  }
}

void EvalContext::restore(const Snapshot& snapshot) {
  state_ = snapshot.state;
  // Footprint pointers depend on per-sector tilt; refresh only the sectors
  // whose tilt actually changed (provider caches keep previously returned
  // references valid). Skipping the unchanged ones keeps the provider's
  // lock off the restore hot path entirely for power-only searches.
  for (const auto& sector : network().sectors()) {
    const auto i = static_cast<std::size_t>(sector.id);
    if (config_[sector.id].tilt != snapshot.config[sector.id].tilt) {
      current_footprint_[i] = &market_->provider().footprint(
          sector.id, snapshot.config[sector.id].tilt);
    }
  }
  config_ = snapshot.config;
  sync_index_bookkeeping();
  invalidate_loads();
}

double EvalContext::sinr_from(double rp_dbm, double rp_mw,
                              double total_mw) const {
  const double interference_mw = std::max(0.0, total_mw - rp_mw);
  return rp_dbm - util::mw_to_dbm(market_->noise_mw() + interference_mw);
}

double EvalContext::sinr_db(geo::GridIndex g) const {
  const auto i = static_cast<std::size_t>(g);
  const double rp_dbm = state_.best_rp_dbm[i];
  if (state_.best[i] == net::kInvalidSector) return rp_dbm;  // -inf
  // best_mw is the exact product accumulated into total_mw, so the
  // interference subtraction inside sinr_from cancels exactly — no
  // per-call pow and no float-rounding residue near the noise floor.
  return sinr_from(rp_dbm, state_.best_mw[i], state_.total_mw[i]);
}

lte::Cqi EvalContext::cqi(geo::GridIndex g) const {
  const double sinr = sinr_db(g);
  if (sinr < options().min_service_sinr_db) return 0;
  return lte::sinr_to_cqi(sinr);
}

bool EvalContext::in_service(geo::GridIndex g) const { return cqi(g) > 0; }

double EvalContext::max_rate_bps(geo::GridIndex g) const {
  return lte::max_rate_bps_for_cqi(cqi(g), network().carrier().bandwidth);
}

double EvalContext::rate_bps(geo::GridIndex g) const {
  const net::SectorId s = serving_sector(g);
  if (s == net::kInvalidSector) return 0.0;
  const double max_rate = max_rate_bps(g);
  if (max_rate <= 0.0) return 0.0;
  return options().scheduler.shared_rate_bps(
      max_rate, sector_loads()[static_cast<std::size_t>(s)]);
}

std::vector<net::SectorId> EvalContext::service_map() const {
  const std::vector<std::int8_t> cqi = cqi_map();
  std::vector<net::SectorId> map(cqi.size(), net::kInvalidSector);
  for (std::size_t i = 0; i < cqi.size(); ++i) {
    if (cqi[i] > 0) map[i] = state_.best[i];
  }
  return map;
}

std::vector<std::int8_t> EvalContext::cqi_map() const {
  std::vector<std::int8_t> cqi(state_.cells());
  cqi_kernel(state_, market_->noise_mw(), options().min_service_sinr_db, cqi);
  return cqi;
}

const std::vector<double>& EvalContext::sector_loads() const {
  if (!loads_valid_) {
    sector_loads_.resize(network().sector_count());
    loads_kernel(state_, market_->ue_density(), market_->noise_mw(),
                 options().min_service_sinr_db, sector_loads_);
    loads_valid_ = true;
  }
  return sector_loads_;
}

double EvalContext::probe_rate_bps(net::SectorId changed, double changed_rp,
                                   double new_total_mw,
                                   geo::GridIndex g) const {
  const auto i = static_cast<std::size_t>(g);
  double other_best_rp;
  net::SectorId other_best;
  if (state_.best[i] == changed) {
    other_best_rp = state_.second_rp_dbm[i];
    other_best = state_.second[i];
  } else {
    other_best_rp = state_.best_rp_dbm[i];
    other_best = state_.best[i];
  }
  net::SectorId server;
  double serving_rp;
  if (changed_rp >= other_best_rp) {
    server = changed;
    serving_rp = changed_rp;
  } else {
    server = other_best;
    serving_rp = other_best_rp;
  }
  if (server == net::kInvalidSector || !std::isfinite(serving_rp)) return 0.0;

  const double sinr =
      sinr_from(serving_rp, util::dbm_to_mw(serving_rp), new_total_mw);
  if (sinr < options().min_service_sinr_db) return 0.0;
  const double max_rate = lte::max_rate_bps_for_cqi(
      lte::sinr_to_cqi(sinr), network().carrier().bandwidth);
  // Approximate the post-change load with the current one (floored at one
  // UE: an idle sector taking over g serves at least g's own UEs).
  const double load =
      std::max(1.0, sector_loads()[static_cast<std::size_t>(server)]);
  return options().scheduler.shared_rate_bps(max_rate, load);
}

bool EvalContext::power_delta_improves_rate(net::SectorId b, double delta_db,
                                            geo::GridIndex g) const {
  const auto i = static_cast<std::size_t>(g);
  const auto& setting = config_[b];
  if (!setting.active) return false;
  const auto& fp = footprint_of(b);
  if (!fp.covers(g)) return false;

  const net::Sector& meta = network().sector(b);
  const double new_power = meta.clamp_power(setting.power_dbm + delta_db);
  if (new_power == setting.power_dbm) return false;  // clamped away

  const double new_rp = new_power + fp.gain_db(g);
  // Same hoisted-linear products the mutation sweeps apply, so the probed
  // total matches what set_power would actually store.
  const double lin = fp.linear_gain(g);
  const double new_total = std::max(
      0.0, state_.total_mw[i] - util::dbm_to_mw(setting.power_dbm) * lin +
               util::dbm_to_mw(new_power) * lin);

  return probe_rate_bps(b, new_rp, new_total, g) >
         rate_bps(g) * (1.0 + 1e-9);
}

bool EvalContext::tilt_improves_rate(net::SectorId b, int tilt,
                                     geo::GridIndex g) {
  const auto i = static_cast<std::size_t>(g);
  const auto& setting = config_[b];
  if (!setting.active) return false;
  const net::Sector& meta = network().sector(b);
  const radio::TiltIndex clamped = meta.clamp_tilt(tilt);
  if (clamped == setting.tilt) return false;

  const auto& old_fp = footprint_of(b);
  const auto& new_fp = market_->provider().footprint(b, clamped);
  const double new_rp_or_ninf =
      setting.power_dbm + new_fp.gain_or_ninf_db(g);
  const double p_lin = util::dbm_to_mw(setting.power_dbm);
  const double old_mw = p_lin * old_fp.linear_or_zero(g);
  const double new_mw = p_lin * new_fp.linear_or_zero(g);
  const double new_total = std::max(0.0, state_.total_mw[i] - old_mw + new_mw);

  return probe_rate_bps(b, new_rp_or_ninf, new_total, g) >
         rate_bps(g) * (1.0 + 1e-9);
}

}  // namespace magus::model
