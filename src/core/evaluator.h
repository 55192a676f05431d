// The Evaluation component of Figure 6: computes f(U(C)) for an eval
// context's current configuration with a single fused pass over the grid.
//
// The pass itself is the free function evaluate_utility(), which scores any
// model::EvalContext — the driver's model or a worker thread's clone — with
// caller-owned scratch buffers, so the parallel evaluator can run it
// concurrently on per-worker contexts. Evaluator is the serial wrapper that
// binds a model, a utility and its own scratch/counter.
#pragma once

#include <cstdint>
#include <vector>

#include "core/utility.h"
#include "model/analysis_model.h"
#include "model/kernels.h"

namespace magus::core {

/// Reusable buffers for evaluate_utility (avoids per-call allocation).
/// One instance per thread; never share across concurrent evaluations.
struct EvalScratch {
  /// Pass 1's per-cell CQI and its memo (model::CqiMemo). The memo carries
  /// over between evaluations — that is its point — and stays exact for
  /// any context of any market, so one scratch may serve several.
  model::CqiMemo cqi_memo;
  std::vector<double> load;
  /// Per-(serving sector, CQI) memo of the per-UE utility term, slot
  /// s * kCqiLevels + (q - 1). Valid only where memo_state says so; every
  /// evaluation resets memo_state, so nothing carries over between calls.
  std::vector<double> memo;
  std::vector<std::uint8_t> memo_state;
};

/// Overall utility of the context's *current* state: the UE-weighted sum
/// of per-UE utility over in-service grids (out-of-service UEs contribute
/// 0, the paper's r <= 0 branch). Thread-safe as long as `context` and
/// `scratch` are owned by the calling thread.
[[nodiscard]] double evaluate_utility(const model::EvalContext& context,
                                      const Utility& utility,
                                      EvalScratch& scratch);

class Evaluator {
 public:
  /// `model` must outlive the evaluator.
  Evaluator(model::AnalysisModel* model, Utility utility);

  [[nodiscard]] const Utility& utility() const { return utility_; }
  [[nodiscard]] model::AnalysisModel& model() const { return *model_; }

  /// f of the model's current state (see evaluate_utility).
  [[nodiscard]] double evaluate() const;

  /// Convenience: utility of an arbitrary configuration. Applies it,
  /// evaluates, and restores the previous state via snapshot.
  [[nodiscard]] double evaluate_configuration(const net::Configuration& c) const;

  /// Number of evaluate() calls so far — the search-cost metric reported
  /// by the convergence benches. Counts only *this* evaluator's serial
  /// calls; ParallelEvaluator::evaluation_count() aggregates across its
  /// workers. Every serial call also adds 1 to the registry counter
  /// "evaluator.serial_evals" (ParallelEvaluator's calls count under
  /// "evaluator.evals").
  [[nodiscard]] long evaluation_count() const { return evaluations_; }

  /// The scratch evaluate() runs on. MagusPlanner hands it to its
  /// ParallelEvaluator as the calling thread's scratch, so one CQI memo
  /// serves the planner's serial and batch evaluations.
  [[nodiscard]] EvalScratch& scratch() const { return scratch_; }

 private:
  model::AnalysisModel* model_;
  Utility utility_;
  mutable long evaluations_ = 0;
  mutable EvalScratch scratch_;
};

}  // namespace magus::core
