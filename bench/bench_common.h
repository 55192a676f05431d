// Shared helpers for the figure/table bench harnesses.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "data/experiment.h"
#include "data/upgrade_scenarios.h"
#include "obs/session.h"
#include "util/args.h"

namespace magus::bench {

/// Scale knobs shared by the market-driven benches. The defaults trade a
/// little fidelity for wall-clock (regions smaller than the paper's
/// 30 km x 30 km); pass --paper-scale for the full geometry.
struct Scale {
  double region_km = 14.0;
  double study_km = 6.0;
  int markets = 3;  ///< paper: three US markets
};

inline void add_scale_flags(util::ArgParser& args) {
  args.add_flag("region-km", "14", "analysis region edge (km)");
  args.add_flag("study-km", "6", "study area edge (km)");
  args.add_flag("markets", "3", "number of synthetic markets");
  args.add_flag("paper-scale", "false",
                "use the paper's 30 km region / 10 km study area");
  args.add_flag("seed", "1", "base seed for market generation");
  util::add_threads_flag(args);
  util::add_obs_flags(args);
}

[[nodiscard]] inline Scale scale_from(const util::ArgParser& args) {
  Scale scale;
  scale.region_km = args.get_double("region-km");
  scale.study_km = args.get_double("study-km");
  scale.markets = static_cast<int>(args.get_int("markets"));
  if (args.get_bool("paper-scale")) {
    scale.region_km = 30.0;
    scale.study_km = 10.0;
  }
  return scale;
}

[[nodiscard]] inline data::MarketParams market_params(
    data::Morphology morphology, int market_index, const Scale& scale,
    std::uint64_t base_seed) {
  data::MarketParams params;
  params.morphology = morphology;
  params.seed = base_seed + 1000ULL * static_cast<std::uint64_t>(market_index) +
                static_cast<std::uint64_t>(morphology);
  params.region_size_m = scale.region_km * 1000.0;
  params.study_size_m = scale.study_km * 1000.0;
  return params;
}

/// The per-scenario measurement every table/figure bench shares: plan the
/// mitigation and report Formula 7's inputs.
struct ScenarioOutcome {
  double f_before = 0.0;
  double f_upgrade = 0.0;
  double f_after = 0.0;
  double recovery = 0.0;
  long candidate_evaluations = 0;
  int accepted_steps = 0;
  core::MitigationPlan plan;
};

[[nodiscard]] inline ScenarioOutcome run_scenario(
    data::Experiment& experiment, data::UpgradeScenario scenario,
    core::TuningMode mode, const core::Utility& utility,
    std::size_t threads = 0) {
  core::Evaluator evaluator{&experiment.model(), utility};
  core::PlannerOptions options;
  options.mode = mode;
  options.threads = threads;
  core::MagusPlanner planner{&evaluator, options};
  const auto targets = data::upgrade_targets(experiment.market(), scenario);

  ScenarioOutcome outcome;
  outcome.plan = planner.plan_upgrade(targets);
  outcome.f_before = outcome.plan.f_before;
  outcome.f_upgrade = outcome.plan.f_upgrade;
  outcome.f_after = outcome.plan.f_after;
  outcome.recovery = outcome.plan.recovery;
  outcome.candidate_evaluations = outcome.plan.search.candidate_evaluations;
  outcome.accepted_steps = outcome.plan.search.accepted_steps;
  return outcome;
}

[[nodiscard]] inline const char* morphology_label(data::Morphology m) {
  return data::morphology_name(m).data();
}

inline const std::vector<data::Morphology> kAllMorphologies = {
    data::Morphology::kRural, data::Morphology::kSuburban,
    data::Morphology::kUrban};

}  // namespace magus::bench
