// SIMD row sweeps for the EvalContext contribution paths.
//
// Each sweep vectorizes *across cells* of one contiguous footprint window
// row: lane j executes exactly the per-cell operation sequence of the
// scalar loop for cell base+j, and cells are independent, so the result is
// bitwise-identical to the scalar code at every lane width (DESIGN.md §15).
// Uncovered cells (NaN gain / zero linear gain) need no masking in the
// arithmetic: their mW contribution is +0.0 (total_mw >= +0.0 stays
// bit-unchanged under += 0.0) and their received power is NaN (every
// ordered compare is false, so the top-2 blend keeps the old state).
//
// The mutation sweeps (remove_row, power_row, swap_row) never re-rank a
// cell themselves: they append the cells whose top-2 they cannot update in
// place to a list the caller re-ranks after the sweep. recompute_top2
// reads only the index, the per-sector mirrors and the configuration, and
// writes only that cell's top-2 fields; the sweep visits each cell once
// and never reads a queued cell again, so deferring is order-equivalent
// to re-ranking inside the loop.
//
// The *_reference twins are the per-cell loops, kept as the oracle for the
// identity tests (and as readable documentation of the semantics).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid_map.h"
#include "model/grid_state.h"
#include "net/sector.h"

namespace magus::model::sweeps {

/// Raw pointers into a GridState's SoA arrays (valid while the state's
/// vectors are not resized).
struct StateView {
  double* total_mw = nullptr;
  net::SectorId* best = nullptr;
  float* best_rp_dbm = nullptr;
  double* best_mw = nullptr;
  net::SectorId* second = nullptr;
  float* second_rp_dbm = nullptr;
};

[[nodiscard]] inline StateView view_of(GridState& state) {
  return {state.total_mw.data(),      state.best.data(),
          state.best_rp_dbm.data(),   state.best_mw.data(),
          state.second.data(),        state.second_rp_dbm.data()};
}

/// Adds sector's contribution over one window row: for each covered cell
/// base+c (gains[c] not NaN), rp = float(power_dbm + gains[c]),
/// mw = p_lin * double(linear[c]), total_mw += mw, then the beats() top-2
/// promotion. `n` is the row width in cells.
void add_row(const StateView& view, std::size_t base, const float* gains,
             const float* linear, std::int32_t n, net::SectorId sector,
             double power_dbm, double p_lin);
void add_row_reference(const StateView& view, std::size_t base,
                       const float* gains, const float* linear,
                       std::int32_t n, net::SectorId sector, double power_dbm,
                       double p_lin);

/// Removes sector's contribution over one window row:
/// total_mw = max(0.0, total_mw - p_lin * double(linear[c])) per covered
/// cell, and appends the grid index of every covered cell whose best or
/// second server is `sector` to `recompute` (the caller re-ranks them
/// afterwards — recompute_top2 touches only per-cell top-2 state, so
/// deferring it out of the sweep is order-equivalent to the interleaved
/// scalar loop). `row_first` is the grid index of cell base+0.
void remove_row(const StateView& view, std::size_t base, const float* gains,
                const float* linear, std::int32_t n, net::SectorId sector,
                double p_lin, geo::GridIndex row_first,
                std::vector<geo::GridIndex>& recompute);
void remove_row_reference(const StateView& view, std::size_t base,
                          const float* gains, const float* linear,
                          std::int32_t n, net::SectorId sector, double p_lin,
                          geo::GridIndex row_first,
                          std::vector<geo::GridIndex>& recompute);

/// Re-powers sector over one window row from old_plin to new_plin (its
/// gains and window are unchanged). Per covered cell, with
/// rp = float(power_dbm + gains[c]) and lin = double(linear[c]):
/// total_mw = max(0, (total_mw + new_plin·lin) − old_plin·lin), then
///  - sector is best: best_rp/best_mw take the new values, and the cell is
///    queued for a re-rank when `decreasing` and the runner-up now beats
///    the sector;
///  - sector is second: second_rp takes rp; when `decreasing` the cell is
///    queued (a third sector may now outrank it), otherwise the sector
///    swaps with the best when it beats it;
///  - otherwise: add_row's beats() promotion of (sector, rp, new mW).
/// A queued cell's top-2 fields are left for the caller's re-rank, which
/// overwrites all of them. The vector sweep screens blocks where the
/// sector is in no cell's top-2 and rp < second_rp in every lane, as
/// add_row does.
void power_row(const StateView& view, std::size_t base, const float* gains,
               const float* linear, std::int32_t n, net::SectorId sector,
               double power_dbm, double old_plin, double new_plin,
               bool decreasing, geo::GridIndex row_first,
               std::vector<geo::GridIndex>& recompute);
void power_row_reference(const StateView& view, std::size_t base,
                         const float* gains, const float* linear,
                         std::int32_t n, net::SectorId sector,
                         double power_dbm, double old_plin, double new_plin,
                         bool decreasing, geo::GridIndex row_first,
                         std::vector<geo::GridIndex>& recompute);

/// The fused tilt swap over the cells that both the old and the new
/// footprint window hold in one row (old_gains/new_gains NaN where
/// uncovered, old_linear/new_linear 0 there). Per cell, with
/// old_mw = p_lin·double(old_linear[c]), new_mw = p_lin·double(new_linear[c])
/// and rp = float(power_dbm + new_gains[c]):
/// total_mw = max(0, total_mw − old_mw) + new_mw — remove_row then
/// add_row's arithmetic — then
///  - sector is best: keeps it in place when rp beats the runner-up,
///    otherwise the cell is queued for a re-rank;
///  - sector is second: swaps with the best when rp beats it, keeps its
///    place (second_rp = rp) when rp >= its old second_rp, otherwise the
///    cell is queued;
///  - otherwise: add_row's promotion (a no-op where rp is NaN).
/// The caller re-ranks queued cells with the sector at its new tilt.
/// Cells held by the old window only are remove_row's, cells held by the
/// new window only are add_row's.
void swap_row(const StateView& view, std::size_t base,
              const float* old_gains, const float* old_linear,
              const float* new_gains, const float* new_linear,
              std::int32_t n, net::SectorId sector, double power_dbm,
              double p_lin, geo::GridIndex row_first,
              std::vector<geo::GridIndex>& recompute);
void swap_row_reference(const StateView& view, std::size_t base,
                        const float* old_gains, const float* old_linear,
                        const float* new_gains, const float* new_linear,
                        std::int32_t n, net::SectorId sector,
                        double power_dbm, double p_lin,
                        geo::GridIndex row_first,
                        std::vector<geo::GridIndex>& recompute);

}  // namespace magus::model::sweeps
