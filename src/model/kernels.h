// Batched per-grid kernels over the GridState SoA spans.
//
// The per-grid SINR -> CQI -> load pipeline used to run through the
// EvalContext accessor chain one cell at a time (sinr_db -> cqi ->
// in_service), recomputing the same conversions at every call site. These
// kernels run the identical math as one pass over the contiguous arrays —
// span-at-a-time loops over total_mw / best / best_rp_dbm with the noise
// floor and service threshold hoisted into registers — which is both what
// the utility evaluator's hot pass and the lazy sector-load cache want.
//
// Bit-identity contract: every kernel returns exactly the values of the
// accessor path it replaces, so results are bit-identical to the unbatched
// code (model_equivalence_test compares against independently computed
// references; the thread-determinism suites compare across worker counts;
// simd_kernels_test puts SINRs on, and within a few ulps of, every
// threshold). libm decides every value that is used: the per-cell log10
// of the SINR denominator is replaced by a vector approximation that only
// classifies, and only outside a 1e-6 dB guard band around each CQI
// threshold and the service floor; every lane inside the band goes
// through cell_cqi (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <span>

#include "lte/amc.h"
#include "model/grid_state.h"

namespace magus::model {

/// CQI of one cell's SoA slice: the exact math of EvalContext::cqi()
/// (Formula 2 SINR, then the CQI switching thresholds; 0 = out of
/// service). `best_mw` is the serving sector's stored mW contribution
/// (GridState::best_mw) — subtracting it from total_mw cancels exactly,
/// and no per-cell dBm->mW conversion is needed. Exposed so callers that
/// already sit on the raw arrays can stay on them.
[[nodiscard]] lte::Cqi cell_cqi(net::SectorId best, float best_rp_dbm,
                                double best_mw, double total_mw,
                                double noise_mw, double min_service_sinr_db);

/// Fused pass 1 of the utility evaluation: per-cell CQI plus per-sector
/// attached-UE loads (Formula 3) in one sweep. `cqi_out` must have
/// state.cells() entries; `loads_out` one entry per sector (both are
/// overwritten). Cells with no UEs still get their CQI (the utility pass
/// skips them, but the value is cheap and keeps the kernel branch-light).
void cqi_and_loads_kernel(const GridState& state,
                          std::span<const double> ue_density, double noise_mw,
                          double min_service_sinr_db,
                          std::span<std::int8_t> cqi_out,
                          std::span<double> loads_out);

/// CQI-only variant: the per-cell CQI of every cell into `cqi_out`
/// (state.cells() entries), for whole-grid readers such as
/// EvalContext::cqi_map().
void cqi_kernel(const GridState& state, double noise_mw,
                double min_service_sinr_db, std::span<std::int8_t> cqi_out);

/// Loads-only variant for EvalContext::sector_loads() — the same sweep
/// without materializing the CQI array. `loads_out` is overwritten.
void loads_kernel(const GridState& state, std::span<const double> ue_density,
                  double noise_mw, double min_service_sinr_db,
                  std::span<double> loads_out);

}  // namespace magus::model
