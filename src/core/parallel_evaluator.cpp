#include "core/parallel_evaluator.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace magus::core {

namespace {

/// Registry handles resolved once; after that the hot path pays only the
/// relaxed atomic update per event.
struct EvaluatorMetrics {
  obs::Counter& evals;
  obs::Counter& batches;
  obs::Histogram& batch_size;
  obs::Histogram& batch_latency_us;
  obs::Histogram& queue_wait_us;

  [[nodiscard]] static EvaluatorMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static EvaluatorMetrics metrics{
        registry.counter("evaluator.evals"),
        registry.counter("evaluator.batches"),
        registry.histogram("evaluator.batch_size",
                           obs::exponential_bounds(1.0, 2.0, 16)),
        registry.histogram("evaluator.batch_latency_us",
                           obs::exponential_bounds(1.0, 4.0, 16)),
        registry.histogram("evaluator.queue_wait_us",
                           obs::exponential_bounds(1.0, 4.0, 12)),
    };
    return metrics;
  }
};

}  // namespace

ParallelEvaluator::ParallelEvaluator(model::AnalysisModel* model,
                                     Utility utility, std::size_t threads,
                                     EvalScratch* caller_scratch)
    : model_(model),
      utility_(std::move(utility)),
      owned_pool_(std::make_unique<util::ThreadPool>(threads)),
      pool_(owned_pool_.get()),
      caller_scratch_(caller_scratch) {
  init();
}

ParallelEvaluator::ParallelEvaluator(model::AnalysisModel* model,
                                     Utility utility, util::ThreadPool* pool,
                                     EvalScratch* caller_scratch)
    : model_(model),
      utility_(std::move(utility)),
      pool_(pool),
      caller_scratch_(caller_scratch) {
  if (pool_ == nullptr) {
    throw std::invalid_argument("ParallelEvaluator: pool must not be null");
  }
  init();
}

void ParallelEvaluator::init() {
  if (model_ == nullptr) {
    throw std::invalid_argument("ParallelEvaluator: model must not be null");
  }
  // Build + bind on the driver thread, before any worker clone is made:
  // clones copy the binding, and the index itself is immutable from here
  // on, so the workers share it without synchronization.
  model_->market_context().ensure_coverage_index();
  model_->bind_coverage_index();
  workers_.resize(pool_->size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].evals = &obs::MetricsRegistry::global().counter(
        "evaluator.worker." + std::to_string(i) + ".evals");
  }
}

double ParallelEvaluator::evaluate() {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  EvaluatorMetrics::get().evals.add(1);
  workers_[0].evals->add(1);  // serial evaluations run on the caller
  return evaluate_utility(*model_, utility_, scratch_of(0));
}

std::vector<double> ParallelEvaluator::score(std::span<const Candidate> batch) {
  std::vector<double> utilities(batch.size());
  if (batch.empty()) return utilities;
  MAGUS_TRACE_SPAN("evaluator.score_batch", "evaluator");

  EvaluatorMetrics& metrics = EvaluatorMetrics::get();
  metrics.batches.add(1);
  metrics.batch_size.observe(static_cast<double>(batch.size()));
  for (Worker& w : workers_) w.measured_wait = false;
  const std::uint64_t batch_start_ns = obs::monotonic_now_ns();

  const model::EvalContext::Snapshot base = model_->snapshot();
  pool_->run(batch.size(), [&](std::size_t worker, std::size_t task) {
    // Profile-mode only (one span per candidate): the per-worker compute
    // time the profiler attributes against the pool's wait spans.
    MAGUS_TRACE_SPAN_FINE("evaluator.task", "evaluator");
    Worker& w = workers_[worker];
    if (!w.measured_wait) {
      // First task of this worker in the batch: how long the worker slot
      // sat idle between batch submission and its first evaluation.
      w.measured_wait = true;
      metrics.queue_wait_us.observe(
          static_cast<double>(obs::monotonic_now_ns() - batch_start_ns) /
          1000.0);
    }
    if (!w.context) {
      // First use: clone the driver model's context. The model is not
      // mutated while score() runs, so concurrent clones only read it.
      w.context = std::make_unique<model::EvalContext>(*model_);
    }
    w.context->restore(base);
    apply_candidate(*w.context, batch[task]);
    utilities[task] =
        evaluate_utility(*w.context, utility_, scratch_of(worker));
    w.evals->add(1);
  });
  evaluations_.fetch_add(static_cast<long>(batch.size()),
                         std::memory_order_relaxed);
  metrics.evals.add(batch.size());
  metrics.batch_latency_us.observe(
      static_cast<double>(obs::monotonic_now_ns() - batch_start_ns) / 1000.0);
  return utilities;
}

}  // namespace magus::core
