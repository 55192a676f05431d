#include "model/simd_sweeps.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/simd.h"

namespace magus::model::sweeps {

namespace {

[[nodiscard]] inline bool beats(float rp_a, net::SectorId a, float rp_b,
                                net::SectorId b) {
  if (rp_a != rp_b) return rp_a > rp_b;
  return a < b;
}

/// Sector becomes best at (rp, mw) and the old best becomes second.
inline void take_lead(const StateView& v, std::size_t i,
                      net::SectorId sector, float rp, double mw) {
  v.second[i] = v.best[i];
  v.second_rp_dbm[i] = v.best_rp_dbm[i];
  v.best[i] = sector;
  v.best_rp_dbm[i] = rp;
  v.best_mw[i] = mw;
}

/// beats() promotion of (sector, rp) into cell i's top-2; `mw` becomes
/// best_mw if the sector takes the lead.
inline void offer_cell(const StateView& v, std::size_t i,
                       net::SectorId sector, float rp, double mw) {
  if (beats(rp, sector, v.best_rp_dbm[i], v.best[i])) {
    take_lead(v, i, sector, rp, mw);
  } else if (beats(rp, sector, v.second_rp_dbm[i], v.second[i])) {
    v.second[i] = sector;
    v.second_rp_dbm[i] = rp;
  }
}

/// One cell of the add sweep, shared by the reference loop and the vector
/// sweep's tail.
inline void add_cell(const StateView& v, std::size_t i, float gain,
                     float linear, net::SectorId sector, double power_dbm,
                     double p_lin) {
  if (std::isnan(gain)) return;
  const auto rp = static_cast<float>(power_dbm + gain);
  const double mw = p_lin * static_cast<double>(linear);
  v.total_mw[i] += mw;
  offer_cell(v, i, sector, rp, mw);
}

inline void power_cell(const StateView& v, std::size_t i, float gain,
                       float linear, net::SectorId sector, double power_dbm,
                       double old_plin, double new_plin, bool decreasing,
                       geo::GridIndex g,
                       std::vector<geo::GridIndex>& recompute) {
  if (std::isnan(gain)) return;
  const auto rp = static_cast<float>(power_dbm + gain);
  const auto lin = static_cast<double>(linear);
  const double new_mw = new_plin * lin;
  v.total_mw[i] = std::max(0.0, v.total_mw[i] + new_mw - old_plin * lin);
  if (v.best[i] == sector) {
    v.best_rp_dbm[i] = rp;
    v.best_mw[i] = new_mw;
    if (decreasing && beats(v.second_rp_dbm[i], v.second[i], rp, sector)) {
      recompute.push_back(g);
    }
  } else if (v.second[i] == sector) {
    v.second_rp_dbm[i] = rp;
    if (decreasing) {
      recompute.push_back(g);  // a third sector may now outrank it
    } else if (beats(rp, sector, v.best_rp_dbm[i], v.best[i])) {
      take_lead(v, i, sector, rp, new_mw);
    }
  } else {
    offer_cell(v, i, sector, rp, new_mw);
  }
}

inline void swap_cell(const StateView& v, std::size_t i, float old_gain,
                      float old_linear, float new_gain, float new_linear,
                      net::SectorId sector, double power_dbm, double p_lin,
                      geo::GridIndex g,
                      std::vector<geo::GridIndex>& recompute) {
  const bool old_covered = !std::isnan(old_gain);
  const bool new_covered = !std::isnan(new_gain);
  if (!old_covered && !new_covered) return;
  if (old_covered) {
    v.total_mw[i] = std::max(
        0.0, v.total_mw[i] - p_lin * static_cast<double>(old_linear));
  }
  // NaN where the new tilt does not cover the cell: beats() and >= are
  // then false, so such a cell is re-ranked or left alone.
  const auto rp = static_cast<float>(power_dbm + new_gain);
  const double new_mw = p_lin * static_cast<double>(new_linear);
  if (new_covered) v.total_mw[i] += new_mw;
  if (v.best[i] == sector) {
    if (beats(rp, sector, v.second_rp_dbm[i], v.second[i])) {
      v.best_rp_dbm[i] = rp;
      v.best_mw[i] = new_mw;
    } else {
      recompute.push_back(g);
    }
  } else if (v.second[i] == sector) {
    if (beats(rp, sector, v.best_rp_dbm[i], v.best[i])) {
      take_lead(v, i, sector, rp, new_mw);
    } else if (rp >= v.second_rp_dbm[i]) {
      v.second_rp_dbm[i] = rp;
    } else {
      recompute.push_back(g);
    }
  } else if (new_covered) {
    offer_cell(v, i, sector, rp, new_mw);
  }
}

namespace vx = util::simd;

/// beats(rp_a, a, rp_b, b) per lane; false where rp_a is NaN.
inline vx::fmask beats_v(vx::vfloat rp_a, vx::vint a, vx::vfloat rp_b,
                         vx::vint b) {
  return vx::m_or(vx::cmp_gt_f(rp_a, rp_b),
                  vx::m_and(vx::cmp_eq_f(rp_a, rp_b), vx::cmp_gt_i(b, a)));
}

/// Loaded top-2 state of one K-lane block.
struct Top2Block {
  vx::vint bid;
  vx::vfloat brp;
  vx::vdouble bmw;
  vx::vint sid;
  vx::vfloat srp;
};

/// Writes one block's top-2 update: `lead` lanes make (sector, rp, mw) the
/// best and demote the old best to second, `second` lanes make (sector,
/// rp) the runner-up, and `sector_best` lanes — `lead` plus any where the
/// sector already leads — store rp and mw as the best's. `lead` and
/// `second` are disjoint.
inline void store_top2(const StateView& view, std::size_t i,
                       const Top2Block& t, vx::fmask lead, vx::fmask second,
                       vx::fmask sector_best, vx::vint vsec, vx::vfloat rp,
                       vx::vdouble mw) {
  vx::storeu_i(view.second + i,
               vx::blend_i(lead, t.bid, vx::blend_i(second, vsec, t.sid)));
  vx::storeu_f(view.second_rp_dbm + i,
               vx::blend_f(lead, t.brp, vx::blend_f(second, rp, t.srp)));
  vx::storeu_i(view.best + i, vx::blend_i(lead, vsec, t.bid));
  vx::storeu_f(view.best_rp_dbm + i, vx::blend_f(sector_best, rp, t.brp));
  vx::storeu_d(view.best_mw + i,
               vx::blend_d(vx::widen(sector_best), mw, t.bmw));
}

/// Appends the grid index of every lane set in `mask`, in lane order.
inline void push_lanes(vx::fmask mask, geo::GridIndex first,
                       std::vector<geo::GridIndex>& recompute) {
  unsigned bits = vx::to_bits(mask);
  while (bits != 0) {
    const int lane = std::countr_zero(bits);
    bits &= bits - 1;
    recompute.push_back(first + lane);
  }
}

inline void remove_cell(const StateView& v, std::size_t i, float gain,
                        float linear, net::SectorId sector, double p_lin,
                        geo::GridIndex g,
                        std::vector<geo::GridIndex>& recompute) {
  if (std::isnan(gain)) return;
  v.total_mw[i] =
      std::max(0.0, v.total_mw[i] - p_lin * static_cast<double>(linear));
  if (v.best[i] == sector || v.second[i] == sector) recompute.push_back(g);
}

}  // namespace

void add_row_reference(const StateView& view, std::size_t base,
                       const float* gains, const float* linear,
                       std::int32_t n, net::SectorId sector, double power_dbm,
                       double p_lin) {
  for (std::int32_t c = 0; c < n; ++c) {
    add_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
             sector, power_dbm, p_lin);
  }
}

void add_row(const StateView& view, std::size_t base, const float* gains,
             const float* linear, std::int32_t n, net::SectorId sector,
             double power_dbm, double p_lin) {
  constexpr std::int32_t K = vx::kWidth;
  const vx::vdouble vpow = vx::set1_d(power_dbm);
  const vx::vdouble vplin = vx::set1_d(p_lin);
  const vx::vint vsec = vx::set1_i(sector);
  std::int32_t c = 0;
  for (; c + K <= n; c += K) {
    const std::size_t i = base + static_cast<std::size_t>(c);
    const vx::vfloat gain = vx::loadu_f(gains + c);
    // A fully uncovered block would add +0.0 everywhere and win no
    // compares — memory stays bit-identical — so skip it outright.
    // Footprint windows are sparse at the corners; this turns those cells
    // into one load + one mask test.
    if (!vx::any(vx::m_not(vx::isnan_f(gain)))) continue;
    // rp = float(power + gain): NaN for uncovered cells, so every ordered
    // compare below is false and those lanes keep their old top-2 state.
    const vx::vfloat rp =
        vx::to_float(vx::add_d(vpow, vx::to_double(gain)));
    // mw = p_lin * double(linear): exactly +0.0 for uncovered cells
    // (linear == 0), and total_mw >= +0.0, so += mw needs no mask.
    const vx::vdouble mw =
        vx::mul_d(vplin, vx::to_double(vx::loadu_f(linear + c)));
    vx::storeu_d(view.total_mw + i,
                 vx::add_d(vx::loadu_d(view.total_mw + i), mw));

    Top2Block t;
    t.srp = vx::loadu_f(view.second_rp_dbm + i);
    // Promotion screen: rp < second_rp <= best_rp makes both beats()
    // checks false in every lane (NaN rp included), so the block's top-2
    // state is provably untouched and the remaining loads/blends/stores
    // can be skipped. >= is conservative for the equal-rp tie-break.
    if (!vx::any(vx::cmp_ge_f(rp, t.srp))) continue;

    t.bid = vx::loadu_i(view.best + i);
    t.brp = vx::loadu_f(view.best_rp_dbm + i);
    t.bmw = vx::loadu_d(view.best_mw + i);
    t.sid = vx::loadu_i(view.second + i);
    // The new signal takes the lead where it beats the best, otherwise
    // maybe second place.
    const vx::fmask bb = beats_v(rp, vsec, t.brp, t.bid);
    const vx::fmask bs =
        vx::m_and(vx::m_not(bb), beats_v(rp, vsec, t.srp, t.sid));
    store_top2(view, i, t, bb, bs, bb, vsec, rp, mw);
  }
  for (; c < n; ++c) {
    add_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
             sector, power_dbm, p_lin);
  }
}

void remove_row_reference(const StateView& view, std::size_t base,
                          const float* gains, const float* linear,
                          std::int32_t n, net::SectorId sector, double p_lin,
                          geo::GridIndex row_first,
                          std::vector<geo::GridIndex>& recompute) {
  for (std::int32_t c = 0; c < n; ++c) {
    remove_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
                sector, p_lin, row_first + c, recompute);
  }
}

void remove_row(const StateView& view, std::size_t base, const float* gains,
                const float* linear, std::int32_t n, net::SectorId sector,
                double p_lin, geo::GridIndex row_first,
                std::vector<geo::GridIndex>& recompute) {
  constexpr std::int32_t K = vx::kWidth;
  const vx::vdouble vplin = vx::set1_d(p_lin);
  const vx::vdouble vzero = vx::set1_d(0.0);
  const vx::vint vsec = vx::set1_i(sector);
  std::int32_t c = 0;
  for (; c + K <= n; c += K) {
    const std::size_t i = base + static_cast<std::size_t>(c);
    const vx::fmask covered = vx::m_not(vx::isnan_f(vx::loadu_f(gains + c)));
    // Fully uncovered block: total_mw would clamp back to itself
    // (max(0, t - 0) == t for t >= +0.0) and nothing can enqueue, so skip.
    if (!vx::any(covered)) continue;
    // Covered-or-not, cells subtract +0.0 when uncovered and clamp against
    // a value >= +0.0: bit-unchanged, so the arithmetic runs maskless.
    // max_d's "b wins on equality" rule reproduces std::max(0.0, x)
    // exactly (+0.0 out for x == ±0.0).
    const vx::vdouble mw =
        vx::mul_d(vplin, vx::to_double(vx::loadu_f(linear + c)));
    vx::storeu_d(
        view.total_mw + i,
        vx::max_d(vx::sub_d(vx::loadu_d(view.total_mw + i), mw), vzero));
    // Only *covered* cells may enqueue a recompute (the scalar loop never
    // visits uncovered ones), hence the NaN mask here.
    const vx::fmask hit = vx::m_and(
        covered,
        vx::m_or(vx::cmp_eq_i(vx::loadu_i(view.best + i), vsec),
                 vx::cmp_eq_i(vx::loadu_i(view.second + i), vsec)));
    push_lanes(hit, row_first + c, recompute);
  }
  for (; c < n; ++c) {
    remove_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
                sector, p_lin, row_first + c, recompute);
  }
}

void power_row_reference(const StateView& view, std::size_t base,
                         const float* gains, const float* linear,
                         std::int32_t n, net::SectorId sector,
                         double power_dbm, double old_plin, double new_plin,
                         bool decreasing, geo::GridIndex row_first,
                         std::vector<geo::GridIndex>& recompute) {
  for (std::int32_t c = 0; c < n; ++c) {
    power_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
               sector, power_dbm, old_plin, new_plin, decreasing,
               row_first + c, recompute);
  }
}

void power_row(const StateView& view, std::size_t base, const float* gains,
               const float* linear, std::int32_t n, net::SectorId sector,
               double power_dbm, double old_plin, double new_plin,
               bool decreasing, geo::GridIndex row_first,
               std::vector<geo::GridIndex>& recompute) {
  constexpr std::int32_t K = vx::kWidth;
  const vx::vdouble vpow = vx::set1_d(power_dbm);
  const vx::vdouble vold = vx::set1_d(old_plin);
  const vx::vdouble vnew = vx::set1_d(new_plin);
  const vx::vdouble vzero = vx::set1_d(0.0);
  const vx::vint vsec = vx::set1_i(sector);
  std::int32_t c = 0;
  for (; c + K <= n; c += K) {
    const std::size_t i = base + static_cast<std::size_t>(c);
    const vx::vfloat gain = vx::loadu_f(gains + c);
    const vx::fmask covered = vx::m_not(vx::isnan_f(gain));
    if (!vx::any(covered)) continue;
    // Uncovered lanes: lin == 0, so both products are +0.0 and
    // max((t + 0) - 0, 0) == t for t >= +0.0 — no mask needed. max_d's
    // "b wins on equality" rule matches std::max(0.0, x).
    const vx::vfloat rp =
        vx::to_float(vx::add_d(vpow, vx::to_double(gain)));
    const vx::vdouble lin = vx::to_double(vx::loadu_f(linear + c));
    const vx::vdouble new_mw = vx::mul_d(vnew, lin);
    vx::storeu_d(view.total_mw + i,
                 vx::max_d(vx::sub_d(vx::add_d(vx::loadu_d(view.total_mw + i),
                                               new_mw),
                                     vx::mul_d(vold, lin)),
                           vzero));

    Top2Block t;
    t.bid = vx::loadu_i(view.best + i);
    t.sid = vx::loadu_i(view.second + i);
    t.srp = vx::loadu_f(view.second_rp_dbm + i);
    const vx::fmask in_best = vx::m_and(covered, vx::cmp_eq_i(t.bid, vsec));
    const vx::fmask in_second =
        vx::m_and(covered, vx::cmp_eq_i(t.sid, vsec));
    const vx::fmask held = vx::m_or(in_best, in_second);
    // add_row's promotion screen where the sector holds no top-2 slot:
    // rp < second_rp <= best_rp in every lane leaves the block untouched.
    if (!vx::any(held) && !vx::any(vx::cmp_ge_f(rp, t.srp))) continue;
    t.brp = vx::loadu_f(view.best_rp_dbm + i);
    t.bmw = vx::loadu_d(view.best_mw + i);
    const vx::fmask beat_best = beats_v(rp, vsec, t.brp, t.bid);
    const vx::fmask beat_second = beats_v(rp, vsec, t.srp, t.sid);
    const vx::fmask other = vx::m_not(held);
    // Offered lanes that beat the best take the lead; so does the
    // sector's own runner-up slot when the power rose (a decrease
    // re-ranks it instead).
    const vx::fmask lead =
        vx::m_and(beat_best, decreasing ? other : vx::m_not(in_best));
    // Offered lanes that only reach second place, and the sector's own
    // runner-up slot wherever it does not take the lead.
    const vx::fmask second = vx::m_or(
        vx::m_and(other, vx::m_and(vx::m_not(beat_best), beat_second)),
        vx::m_and(in_second, vx::m_not(lead)));
    if (decreasing) {
      // The runner-up now beats the sector (the scalar rule). Queued
      // lanes still take the in-place writes, as the scalar loop does
      // before it queues them; the re-rank overwrites them.
      const vx::fmask demoted =
          vx::m_and(in_best, beats_v(t.srp, t.sid, rp, vsec));
      push_lanes(vx::m_or(demoted, in_second), row_first + c, recompute);
    }
    store_top2(view, i, t, lead, second, vx::m_or(lead, in_best), vsec, rp,
               new_mw);
  }
  for (; c < n; ++c) {
    power_cell(view, base + static_cast<std::size_t>(c), gains[c], linear[c],
               sector, power_dbm, old_plin, new_plin, decreasing,
               row_first + c, recompute);
  }
}

void swap_row_reference(const StateView& view, std::size_t base,
                        const float* old_gains, const float* old_linear,
                        const float* new_gains, const float* new_linear,
                        std::int32_t n, net::SectorId sector,
                        double power_dbm, double p_lin,
                        geo::GridIndex row_first,
                        std::vector<geo::GridIndex>& recompute) {
  for (std::int32_t c = 0; c < n; ++c) {
    swap_cell(view, base + static_cast<std::size_t>(c), old_gains[c],
              old_linear[c], new_gains[c], new_linear[c], sector, power_dbm,
              p_lin, row_first + c, recompute);
  }
}

void swap_row(const StateView& view, std::size_t base,
              const float* old_gains, const float* old_linear,
              const float* new_gains, const float* new_linear,
              std::int32_t n, net::SectorId sector, double power_dbm,
              double p_lin, geo::GridIndex row_first,
              std::vector<geo::GridIndex>& recompute) {
  constexpr std::int32_t K = vx::kWidth;
  const vx::vdouble vpow = vx::set1_d(power_dbm);
  const vx::vdouble vplin = vx::set1_d(p_lin);
  const vx::vdouble vzero = vx::set1_d(0.0);
  const vx::vint vsec = vx::set1_i(sector);
  std::int32_t c = 0;
  for (; c + K <= n; c += K) {
    const std::size_t i = base + static_cast<std::size_t>(c);
    const vx::vfloat new_gain = vx::loadu_f(new_gains + c);
    const vx::fmask touched =
        vx::m_or(vx::m_not(vx::isnan_f(vx::loadu_f(old_gains + c))),
                 vx::m_not(vx::isnan_f(new_gain)));
    if (!vx::any(touched)) continue;
    // remove_row's clamp, then add_row's sum; an uncovered side
    // contributes +0.0 (its linear twin is 0), which leaves t >= +0.0
    // bit-unchanged through both steps.
    const vx::vdouble old_mw =
        vx::mul_d(vplin, vx::to_double(vx::loadu_f(old_linear + c)));
    const vx::vdouble new_mw =
        vx::mul_d(vplin, vx::to_double(vx::loadu_f(new_linear + c)));
    vx::storeu_d(
        view.total_mw + i,
        vx::add_d(vx::max_d(vx::sub_d(vx::loadu_d(view.total_mw + i), old_mw),
                            vzero),
                  new_mw));
    // NaN where the new tilt does not cover the cell: every ordered
    // compare below is false there.
    const vx::vfloat rp =
        vx::to_float(vx::add_d(vpow, vx::to_double(new_gain)));

    Top2Block t;
    t.bid = vx::loadu_i(view.best + i);
    t.sid = vx::loadu_i(view.second + i);
    t.srp = vx::loadu_f(view.second_rp_dbm + i);
    const vx::fmask in_best = vx::m_and(touched, vx::cmp_eq_i(t.bid, vsec));
    const vx::fmask in_second =
        vx::m_and(touched, vx::cmp_eq_i(t.sid, vsec));
    const vx::fmask held = vx::m_or(in_best, in_second);
    if (!vx::any(held) && !vx::any(vx::cmp_ge_f(rp, t.srp))) continue;
    t.brp = vx::loadu_f(view.best_rp_dbm + i);
    t.bmw = vx::loadu_d(view.best_mw + i);
    const vx::fmask beat_best = beats_v(rp, vsec, t.brp, t.bid);
    const vx::fmask beat_second = beats_v(rp, vsec, t.srp, t.sid);
    const vx::fmask not_best = vx::m_not(beat_best);
    const vx::fmask in_place = vx::m_and(in_best, beat_second);
    const vx::fmask lead = vx::m_and(vx::m_not(in_best), beat_best);
    const vx::fmask kept_second = vx::m_and(
        in_second, vx::m_and(not_best, vx::cmp_ge_f(rp, t.srp)));
    const vx::fmask second = vx::m_or(
        kept_second,
        vx::m_and(vx::m_not(held), vx::m_and(not_best, beat_second)));
    push_lanes(vx::m_or(vx::m_and(in_best, vx::m_not(beat_second)),
                        vx::m_and(in_second,
                                  vx::m_and(not_best,
                                            vx::m_not(kept_second)))),
               row_first + c, recompute);
    store_top2(view, i, t, lead, second, vx::m_or(lead, in_place), vsec, rp,
               new_mw);
  }
  for (; c < n; ++c) {
    swap_cell(view, base + static_cast<std::size_t>(c), old_gains[c],
              old_linear[c], new_gains[c], new_linear[c], sector, power_dbm,
              p_lin, row_first + c, recompute);
  }
}

}  // namespace magus::model::sweeps
