#include "core/evaluator.h"

#include <array>
#include <stdexcept>

#include "lte/amc.h"
#include "model/kernels.h"
#include "obs/metrics.h"

namespace magus::core {

double evaluate_utility(const model::EvalContext& context,
                        const Utility& utility, EvalScratch& scratch) {
  const auto cells = static_cast<std::size_t>(context.cell_count());
  const auto ue = context.ue_density();
  const auto sectors = context.network().sector_count();
  const auto bandwidth = context.network().carrier().bandwidth;
  const auto& scheduler = context.options().scheduler;

  scratch.load.resize(sectors);

  // Pass 1: per-grid CQI and per-sector attached-UE loads (Formula 3),
  // fused into one kernel sweep over the GridState SoA spans. The memo
  // keeps every cell whose CQI provably did not change since this
  // scratch's last evaluation.
  model::cqi_and_loads_kernel(context.state(), ue, context.noise_mw(),
                              context.options().min_service_sinr_db,
                              scratch.cqi_memo, scratch.load);
  const std::vector<std::int8_t>& cqi_of = scratch.cqi_memo.cqi;

  // Pass 2: UE-weighted utility with shared rates (Formula 4). A cell's
  // per-UE term u(shared_rate(r_max(q), N(s))) depends only on its serving
  // sector s and CQI q, so it is memoized per (s, q): the scheduler share
  // and the utility (a log for Formula 6) run at most sectors x 15 times
  // instead of once per served cell. u is a pure function of the rate, so
  // each memoized term is the exact double the per-cell call would return,
  // and the cell-order accumulation below keeps the sum bit-identical.
  std::array<double, lte::kCqiLevels + 1> rate_for_cqi{};
  for (lte::Cqi cqi = 1; cqi <= lte::kCqiLevels; ++cqi) {
    rate_for_cqi[static_cast<std::size_t>(cqi)] =
        lte::max_rate_bps_for_cqi(cqi, bandwidth);
  }
  enum : std::uint8_t { kUnset = 0, kSkip = 1, kSet = 2 };
  constexpr auto kLevels = static_cast<std::size_t>(lte::kCqiLevels);
  scratch.memo.resize(sectors * kLevels);
  scratch.memo_state.assign(sectors * kLevels, kUnset);
  const model::GridState& state = context.state();
  double total = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (cqi_of[i] <= 0 || ue[i] <= 0.0) continue;
    const auto s = static_cast<std::size_t>(state.best[i]);
    const auto q = static_cast<std::size_t>(cqi_of[i]);
    const std::size_t slot = s * kLevels + (q - 1);
    std::uint8_t& memo_state = scratch.memo_state[slot];
    if (memo_state == kUnset) {
      // A shared rate of 0 (e.g. an overhead-aware scheduler saturated by
      // the sector's load) is out of service: the cell contributes nothing.
      const double rate =
          scheduler.shared_rate_bps(rate_for_cqi[q], scratch.load[s]);
      if (rate > 0.0) {
        scratch.memo[slot] = utility.per_ue(rate);
        memo_state = kSet;
      } else {
        memo_state = kSkip;
      }
    }
    if (memo_state == kSet) total += ue[i] * scratch.memo[slot];
  }
  return total;
}

Evaluator::Evaluator(model::AnalysisModel* model, Utility utility)
    : model_(model), utility_(std::move(utility)) {
  if (model_ == nullptr) {
    throw std::invalid_argument("Evaluator: model must not be null");
  }
}

double Evaluator::evaluate() const {
  ++evaluations_;
  static obs::Counter& serial_evals =
      obs::MetricsRegistry::global().counter("evaluator.serial_evals");
  serial_evals.add(1);
  return evaluate_utility(*model_, utility_, scratch_);
}

double Evaluator::evaluate_configuration(const net::Configuration& c) const {
  const auto snapshot = model_->snapshot();
  model_->set_configuration(c);
  const double value = evaluate();
  model_->restore(snapshot);
  return value;
}

}  // namespace magus::core
