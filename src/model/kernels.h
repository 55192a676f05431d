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
// through cell_cqi (DESIGN.md §8). A memo may only reuse a class libm or
// the guarded approximation already decided, inside a proven margin: the
// memoized pass 1 (CqiMemo) re-emits a cell's previous CQI only when a
// log-free bound proves its SINR moved less than that margin.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

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

/// Pass 1's memo of its last classification, for a caller that sweeps the
/// same cells again and again (one per evaluation thread, in
/// core::EvalScratch). Per cell it keeps what the CQI is a function of —
/// the serving rp and the SINR denominator d = noise + max(0, total_mw -
/// best_mw), stored as floats — and a margin m (dB, rounded down): the
/// distance of the classified SINR to the nearest CQI edge or the service
/// floor, minus a slack that covers every rounding in the screen. m = 0
/// (never reused) for lanes libm decided, cells with no server and
/// denominators that are not positive normal finite floats. 12 bytes per
/// cell; the classes themselves are `cqi`, the kernel's output.
///
/// A later sweep reuses cell c's class when its rp is equal, it still has
/// a server, and (10 / ln 10) * |d - d_c| < m * min(d, d_c): as
/// |ln(a / b)| <= |a - b| / min(a, b), the SINR then moved less than m dB
/// (DESIGN.md §8). The entries depend on no model state beyond the cell
/// count and the floor, so one memo may serve any context of any market;
/// a sweep with another cell count or floor re-classifies every cell.
struct CqiMemo {
  /// The CQI of every cell from the last memoized sweep.
  std::vector<std::int8_t> cqi;
  std::vector<float> rp_dbm;
  std::vector<float> denom_mw;
  std::vector<float> margin_db;
  /// The service floor the entries were classified against.
  double min_service_sinr_db = std::numeric_limits<double>::quiet_NaN();
  bool valid = false;

  /// Drops every entry: the next sweep classifies every cell.
  void clear() { valid = false; }
};

/// Fused pass 1 of the utility evaluation: per-cell CQI plus per-sector
/// attached-UE loads (Formula 3) in one sweep. The CQI of every cell lands
/// in memo.cqi (state.cells() entries), bit-identical to cqi_kernel;
/// `loads_out` gets one entry per sector (overwritten). Chunks of K cells
/// whose every lane passes the memo screen keep their memoized classes;
/// any other chunk is classified exactly as cqi_kernel does and refreshes
/// its entries, so a fresh or cleared memo classifies every cell. Loads
/// accumulate in cell order either way. Cells with no UEs still get their
/// CQI (the utility pass skips them, but the value is cheap and keeps the
/// kernel branch-light).
void cqi_and_loads_kernel(const GridState& state,
                          std::span<const double> ue_density, double noise_mw,
                          double min_service_sinr_db, CqiMemo& memo,
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
