// ParallelEvaluator: scores candidate batches across worker threads.
//
// Owns one EvalContext clone (plus scratch buffers) per worker. score()
// snapshots the driver model's current state once, then every candidate is
// evaluated from that identical base: the worker restores its clone to the
// base, applies the candidate's mutations incrementally, and runs the same
// fused utility pass the serial Evaluator uses. A candidate's utility
// therefore depends only on (base state, candidate) — never on which worker
// scored it, in what order, or how many threads exist — so search drivers
// built on batches return bit-identical results for any thread count,
// including 1 (where the pool runs inline with zero synchronization).
//
// Thread-safety: the driver model is read (snapshot/clone) but never
// mutated during score(); worker clones are single-owner per worker; the
// shared MarketContext is immutable during evaluation (see
// model/market_context.h). The evaluation counter aggregates across
// workers atomically.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/evaluator.h"
#include "core/search_types.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace magus::core {

class ParallelEvaluator {
 public:
  /// `model` must outlive the evaluator. `threads == 0` resolves to the
  /// hardware concurrency; 1 gives the exact serial path.
  ///
  /// Builds the market's coverage index if absent and binds the driver
  /// model to it before any worker clone exists, so every evaluation runs
  /// the CSR top-2 fast path (bit-identical to the unbound scan — see
  /// model/coverage_index.h).
  ///
  /// `caller_scratch`, when given, is the calling thread's scratch (worker
  /// 0's): the planner passes its serial Evaluator's, so serial and batch
  /// evaluations on that thread share one CQI memo. It must outlive the
  /// evaluator and be used by no other thread.
  ParallelEvaluator(model::AnalysisModel* model, Utility utility,
                    std::size_t threads = 1,
                    EvalScratch* caller_scratch = nullptr);

  /// Shares an externally owned worker pool instead of spawning one. The
  /// fleet WavePlanner plans hundreds of markets with one pool: a fresh
  /// per-market pool would pay thread spawn/join per market and oversubscribe
  /// nothing in return. `pool` must outlive the evaluator; batches still run
  /// one at a time (ThreadPool::run is not reentrant), which the sequential
  /// per-market planning loop guarantees.
  ParallelEvaluator(model::AnalysisModel* model, Utility utility,
                    util::ThreadPool* pool,
                    EvalScratch* caller_scratch = nullptr);

  [[nodiscard]] model::AnalysisModel& model() const { return *model_; }
  [[nodiscard]] const Utility& utility() const { return utility_; }
  [[nodiscard]] std::size_t thread_count() const { return pool_->size(); }

  /// f of the driver model's current state (serial, on the calling
  /// thread). Counts as one evaluation.
  [[nodiscard]] double evaluate();

  /// Scores every candidate applied on top of the model's *current* state;
  /// returns the utilities in candidate order. The model itself is left
  /// untouched. Counts batch.size() evaluations.
  [[nodiscard]] std::vector<double> score(std::span<const Candidate> batch);

  /// Evaluations performed so far, aggregated across all workers. Replaces
  /// Evaluator::evaluation_count() as the search-cost metric on the
  /// parallel path; the total is deterministic (it counts candidates, not
  /// per-thread work shares).
  [[nodiscard]] long evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::unique_ptr<model::EvalContext> context;  ///< lazily cloned
    EvalScratch scratch;
    /// "evaluator.worker.<i>.evals" in the global registry; the per-worker
    /// counts always sum to evaluation_count() (the serial-equivalent
    /// total), which is the invariant the metrics artifact exposes.
    obs::Counter* evals = nullptr;
    bool measured_wait = false;  ///< first-task queue wait taken this batch
  };

  /// Shared tail of both constructors: index binding + worker slots.
  void init();
  /// The scratch worker `worker` evaluates on (see workers_).
  [[nodiscard]] EvalScratch& scratch_of(std::size_t worker) {
    return worker == 0 && caller_scratch_ != nullptr
               ? *caller_scratch_
               : workers_[worker].scratch;
  }

  model::AnalysisModel* model_;
  Utility utility_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  ///< null when shared
  util::ThreadPool* pool_;
  /// workers_[0] is the calling thread (util::ThreadPool counts the
  /// caller as worker 0), so the serial evaluate() runs on its scratch
  /// too: both sweep the same market, and one CQI memo serves both.
  /// caller_scratch_, when set, replaces worker 0's own scratch.
  std::vector<Worker> workers_;
  EvalScratch* caller_scratch_;
  std::atomic<long> evaluations_{0};
};

}  // namespace magus::core
