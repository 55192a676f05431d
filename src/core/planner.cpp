#include "core/planner.h"

#include <algorithm>
#include <stdexcept>

#include "core/strategies.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace magus::core {

namespace {

struct PlannerMetrics {
  obs::Counter& plans;
  obs::Counter& replans;
  obs::Counter& pre_plan_steps;
  obs::Counter& polish_steps;
  obs::Histogram& plan_latency_us;

  [[nodiscard]] static PlannerMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static PlannerMetrics metrics{
        registry.counter("planner.plans"),
        registry.counter("planner.replans"),
        registry.counter("planner.pre_plan_steps"),
        registry.counter("planner.polish_steps"),
        registry.histogram("planner.plan_latency_us",
                           obs::exponential_bounds(1'000.0, 4.0, 12)),
    };
    return metrics;
  }
};

}  // namespace

std::string tuning_mode_name(TuningMode mode) {
  switch (mode) {
    case TuningMode::kPower:
      return "power";
    case TuningMode::kTilt:
      return "tilt";
    case TuningMode::kJoint:
      return "joint";
    case TuningMode::kNaive:
      return "naive";
  }
  return "?";
}

MagusPlanner::MagusPlanner(Evaluator* evaluator, PlannerOptions options)
    : evaluator_(evaluator), options_(options) {
  if (evaluator_ == nullptr) {
    throw std::invalid_argument("MagusPlanner: evaluator must not be null");
  }
}

ParallelEvaluator& MagusPlanner::parallel_evaluator() const {
  if (parallel_ == nullptr) {
    parallel_ =
        options_.shared_pool != nullptr
            ? std::make_unique<ParallelEvaluator>(
                  &evaluator_->model(), evaluator_->utility(),
                  options_.shared_pool, &evaluator_->scratch())
            : std::make_unique<ParallelEvaluator>(
                  &evaluator_->model(), evaluator_->utility(),
                  options_.threads, &evaluator_->scratch());
  }
  return *parallel_;
}

SearchResult MagusPlanner::run_search(
    std::span<const net::SectorId> involved,
    std::span<const double> baseline_rates) const {
  ParallelEvaluator& parallel = parallel_evaluator();
  switch (options_.mode) {
    case TuningMode::kPower: {
      const PowerSearch search{options_.power};
      return search.run(parallel, involved, baseline_rates);
    }
    case TuningMode::kTilt: {
      const TiltSearch search{options_.tilt};
      return search.run(parallel, involved);
    }
    case TuningMode::kJoint: {
      const JointSearch search{JointSearchOptions{options_.tilt,
                                                  options_.power}};
      return search.run(parallel, involved, baseline_rates);
    }
    case TuningMode::kNaive: {
      const NaiveSearch search{};
      return search.run(parallel, involved);
    }
  }
  throw std::logic_error("MagusPlanner: unknown tuning mode");
}

void MagusPlanner::polish(MitigationPlan& plan) const {
  if (!options_.hybrid_polish || options_.mode == TuningMode::kNaive) return;
  MAGUS_TRACE_SPAN("planner.polish", "planner");
  FeedbackOptions polish_options;
  polish_options.unit_db = options_.power.unit_db;
  polish_options.allow_power = options_.mode != TuningMode::kTilt;
  polish_options.allow_tilt = options_.mode != TuningMode::kPower;
  polish_options.max_steps = options_.polish_max_steps;
  const FeedbackRun result =
      run_feedback_search(*evaluator_, plan.involved, polish_options);
  if (!result.utility_per_step.empty()) {
    plan.search.utility = result.utility_per_step.back();
    plan.search.config = result.final_config;
    plan.search.accepted_steps +=
        static_cast<int>(result.utility_per_step.size());
    PlannerMetrics::get().polish_steps.add(result.utility_per_step.size());
  }
  plan.search.candidate_evaluations += result.probe_count;
}

std::vector<net::SectorId> MagusPlanner::involved_sectors(
    std::span<const net::SectorId> targets,
    std::span<const net::SectorId> excluded) const {
  const net::Network& network = evaluator_->model().network();
  std::vector<net::SectorId> involved =
      network.neighbors_of(targets, options_.neighbor_radius_m);
  if (!excluded.empty()) {
    std::vector<net::SectorId> vetoed(excluded.begin(), excluded.end());
    std::sort(vetoed.begin(), vetoed.end());
    std::erase_if(involved, [&](net::SectorId s) {
      return std::binary_search(vetoed.begin(), vetoed.end(), s);
    });
  }

  // Order nearest-first (minimum distance to any target's site); the tilt
  // and naive greedy passes visit sectors in this order.
  const auto distance_to_targets = [&](net::SectorId s) {
    double best = std::numeric_limits<double>::infinity();
    for (const net::SectorId t : targets) {
      best = std::min(best, geo::distance_m(network.sector(s).position,
                                            network.sector(t).position));
    }
    return best;
  };
  std::sort(involved.begin(), involved.end(),
            [&](net::SectorId a, net::SectorId b) {
              return distance_to_targets(a) < distance_to_targets(b);
            });
  if (involved.size() > options_.max_neighbors) {
    involved.resize(options_.max_neighbors);
  }
  return involved;
}

MitigationPlan MagusPlanner::plan_upgrade(
    std::span<const net::SectorId> targets,
    std::span<const net::SectorId> excluded) const {
  if (targets.empty()) {
    throw std::invalid_argument("MagusPlanner: no target sectors");
  }
  for (const net::SectorId t : targets) {
    if (std::find(excluded.begin(), excluded.end(), t) != excluded.end()) {
      throw std::invalid_argument(
          "MagusPlanner: target sector is excluded (quarantined)");
    }
  }
  // Bind the search machinery (and the coverage index) before the latency
  // timer starts: planner.plan_latency_us measures planning, not a
  // market's one-time index build.
  (void)parallel_evaluator();
  MAGUS_TRACE_SPAN("planner.plan_upgrade", "planner");
  PlannerMetrics& metrics = PlannerMetrics::get();
  metrics.plans.add(1);
  const obs::ScopedTimerUs plan_timer{metrics.plan_latency_us};
  model::AnalysisModel& model = evaluator_->model();

  MitigationPlan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.involved = involved_sectors(targets, excluded);

  // C_before: the *planned* configuration. Starting from the deployment
  // defaults, locally optimize the neighborhood (targets included — the
  // planners tuned it with everything on-air), then freeze the UE density
  // there.
  model.set_configuration(model.network().default_configuration());
  if (options_.pre_plan) {
    MAGUS_TRACE_SPAN("planner.pre_plan", "planner");
    std::vector<net::SectorId> neighborhood = plan.involved;
    neighborhood.insert(neighborhood.end(), plan.targets.begin(),
                        plan.targets.end());
    model.freeze_uniform_ue_density();
    metrics.pre_plan_steps.add(static_cast<std::uint64_t>(
        pre_plan_power(*evaluator_, neighborhood, options_.pre_plan_step_db,
                       options_.pre_plan_sweeps)));
  }
  plan.c_before = model.configuration();
  model.freeze_uniform_ue_density();
  const std::span<const double> density = model.ue_density();
  plan.ue_density.assign(density.begin(), density.end());
  plan.f_before = evaluator_->evaluate();
  const std::vector<double> baseline_rates = capture_rates(model);

  // C_upgrade: targets off-air, nothing tuned.
  for (const net::SectorId t : targets) model.set_active(t, false);
  plan.f_upgrade = evaluator_->evaluate();

  // Search for C_after (candidate batches scored across the worker pool).
  {
    MAGUS_TRACE_SPAN("planner.search", "planner");
    plan.search = run_search(plan.involved, baseline_rates);
  }
  // The hybrid phase's move set matches the tuning mode so the Table-1
  // rows stay comparable.
  polish(plan);
  plan.f_after = plan.search.utility;
  plan.recovery =
      recovery_ratio({plan.f_before, plan.f_upgrade, plan.f_after});

  // Gradual migration schedule, starting again from C_before.
  MAGUS_TRACE_SPAN("planner.gradual", "planner");
  model.set_configuration(plan.c_before);
  const GradualTuner tuner{options_.gradual};
  plan.gradual = tuner.plan(*evaluator_, targets, plan.search.config);

  return plan;
}

MitigationPlan MagusPlanner::replan_from_current(
    std::span<const net::SectorId> targets,
    std::span<const double> baseline_rates,
    std::span<const net::SectorId> excluded) const {
  if (targets.empty()) {
    throw std::invalid_argument("MagusPlanner: no target sectors");
  }
  (void)parallel_evaluator();
  MAGUS_TRACE_SPAN("planner.replan_from_current", "planner");
  PlannerMetrics::get().replans.add(1);
  model::AnalysisModel& model = evaluator_->model();

  MitigationPlan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.involved = involved_sectors(targets, excluded);
  plan.c_before = model.configuration();
  const std::span<const double> density = model.ue_density();
  plan.ue_density.assign(density.begin(), density.end());
  plan.f_before = evaluator_->evaluate();

  const std::vector<double> baseline =
      baseline_rates.empty()
          ? capture_rates(model)
          : std::vector<double>(baseline_rates.begin(), baseline_rates.end());

  for (const net::SectorId t : targets) model.set_active(t, false);
  plan.f_upgrade = evaluator_->evaluate();

  plan.search = run_search(plan.involved, baseline);
  polish(plan);
  plan.f_after = plan.search.utility;
  plan.recovery =
      recovery_ratio({plan.f_before, plan.f_upgrade, plan.f_after});
  return plan;
}

int pre_plan_power(Evaluator& evaluator,
                   std::span<const net::SectorId> sectors, double step_db,
                   int sweeps) {
  model::AnalysisModel& model = evaluator.model();
  int accepted = 0;
  double current_utility = evaluator.evaluate();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (const net::SectorId s : sectors) {
      if (!model.configuration()[s].active) continue;
      for (const double direction : {step_db, -step_db}) {
        bool improved_any = false;
        while (true) {
          const double before = model.configuration()[s].power_dbm;
          const auto snapshot = model.snapshot();
          model.set_power(s, before + direction);
          if (model.configuration()[s].power_dbm == before) break;  // cap
          const double utility = evaluator.evaluate();
          if (utility > current_utility + 1e-9) {
            current_utility = utility;
            ++accepted;
            improved_any = true;
          } else {
            model.restore(snapshot);
            break;
          }
        }
        // If the first direction helped, don't immediately undo it by
        // probing the other direction this sweep.
        if (improved_any) break;
      }
    }
  }
  return accepted;
}

}  // namespace magus::core
