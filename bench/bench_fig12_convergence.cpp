// Figure 12: speed of convergence of the four strategies. Prints the
// utility-vs-step series for proactive model-based, reactive model-based,
// reactive feedback-based, and no tuning, plus the idealized / realistic
// feedback step counts (paper: 27 idealized, ~310 realistic, vs 1 step for
// model-based approaches).
#include <chrono>

#include "bench_common.h"
#include "core/strategies.h"
#include "fleet/wave_planner.h"
#include "obs/profiler.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace magus;

  util::ArgParser args{"Figure 12: convergence speed of tuning strategies"};
  bench::add_scale_flags(args);
  args.add_flag("post-steps", "40", "steps plotted after the upgrade");
  args.add_flag("csv", "", "optional CSV output path");
  args.add_flag("json", "", "optional JSON summary path (timing + speedup)");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << '\n';
    return 1;
  }
  const bench::Scale scale = bench::scale_from(args);
  const obs::ObsSession obs_session{args};
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::size_t threads = util::threads_from(args);

  data::Experiment experiment{bench::market_params(
      data::Morphology::kSuburban, 0, scale, seed)};

  // Find C_after first (joint tuning), then build the strategy timelines.
  // The planning run is timed so --json can report evaluation throughput;
  // every run starts from the same initial configuration, so the plan is
  // identical for any thread count.
  const net::Configuration initial = experiment.model().configuration();
  const auto timed_scenario = [&](std::size_t run_threads) {
    experiment.model().set_configuration(initial);
    const auto start = std::chrono::steady_clock::now();
    bench::ScenarioOutcome run = bench::run_scenario(
        experiment, data::UpgradeScenario::kSingleSector,
        core::TuningMode::kJoint, core::Utility::performance(), run_threads);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    return std::pair{run, wall.count()};
  };
  const auto [outcome, wall_s] = timed_scenario(threads);

  if (const std::string json_path = args.get_string("json");
      !json_path.empty()) {
    // Reference run at one thread for the speedup + identical-result check.
    const auto [reference, wall_1] =
        threads == 1 ? std::pair{outcome, wall_s} : timed_scenario(1);
    const bool identical =
        reference.plan.search.config == outcome.plan.search.config &&
        reference.plan.search.utility == outcome.plan.search.utility &&
        reference.candidate_evaluations == outcome.candidate_evaluations;
    util::JsonObject summary;
    summary.set("meta", obs::run_metadata_json());
    summary.set("bench", "fig12_convergence");
    summary.set("threads", static_cast<std::int64_t>(threads));
    summary.set("candidate_evaluations",
                static_cast<std::int64_t>(outcome.candidate_evaluations));
    summary.set("wall_s_1_thread", wall_1);
    summary.set("wall_s", wall_s);
    summary.set("evals_per_sec_1_thread",
                static_cast<double>(reference.candidate_evaluations) / wall_1);
    summary.set("evals_per_sec",
                static_cast<double>(outcome.candidate_evaluations) / wall_s);
    summary.set("speedup_vs_1_thread", wall_1 / wall_s);
    summary.set("identical_result", identical);
    // Result-identity gate: FNV-1a over the final configuration and the
    // bit pattern of the final utility. Performance work on the evaluation
    // path must leave it unchanged (bench_regress.py "eq" rule).
    summary.set("result_fingerprint",
                static_cast<std::int64_t>(fleet::plan_fingerprint(
                    outcome.plan.search.config, outcome.plan.search.utility,
                    util::kFnv1aOffsetBasis)));
    summary.write_file(json_path);
    std::cout << "JSON summary written to " << json_path << '\n';
  }

  core::Evaluator evaluator{&experiment.model(),
                            core::Utility::performance()};
  experiment.model().set_configuration(outcome.plan.c_before);
  core::TimelineOptions options;
  options.post_steps = static_cast<int>(args.get_int("post-steps"));
  options.feedback.max_steps = options.post_steps * 4;
  const auto timelines = core::build_strategy_timelines(
      evaluator, outcome.plan.targets, outcome.plan.involved,
      outcome.plan.search.config, options);

  std::cout << "Figure 12 reproduction (suburban, scenario (a))\n\n";
  util::TablePrinter table({"step", "proactive-model", "reactive-model",
                            "reactive-feedback", "no-tuning"});
  const auto series_of = [&](core::StrategyKind kind) {
    for (const auto& t : timelines) {
      if (t.kind == kind) return &t;
    }
    return static_cast<const core::StrategyTimeline*>(nullptr);
  };
  const auto* proactive = series_of(core::StrategyKind::kProactiveModel);
  const auto* reactive = series_of(core::StrategyKind::kReactiveModel);
  const auto* feedback = series_of(core::StrategyKind::kReactiveFeedback);
  const auto* none = series_of(core::StrategyKind::kNoTuning);

  std::unique_ptr<util::CsvWriter> csv;
  if (const std::string path = args.get_string("csv"); !path.empty()) {
    csv = std::make_unique<util::CsvWriter>(path);
    csv->write_row({"step", "proactive_model", "reactive_model",
                    "reactive_feedback", "no_tuning"});
  }
  for (std::size_t i = 0; i < proactive->series.size(); ++i) {
    table.add_row({std::to_string(proactive->series[i].step),
                   util::TablePrinter::num(proactive->series[i].utility, 2),
                   util::TablePrinter::num(reactive->series[i].utility, 2),
                   util::TablePrinter::num(feedback->series[i].utility, 2),
                   util::TablePrinter::num(none->series[i].utility, 2)});
    if (csv) {
      csv->write_row({std::to_string(proactive->series[i].step),
                      util::CsvWriter::cell(proactive->series[i].utility),
                      util::CsvWriter::cell(reactive->series[i].utility),
                      util::CsvWriter::cell(feedback->series[i].utility),
                      util::CsvWriter::cell(none->series[i].utility)});
    }
  }
  table.print(std::cout);

  std::cout << "\nConvergence cost:\n"
            << "  proactive model-based:  0 steps after the upgrade "
               "(pre-tuned; utility never dips below f(C_after))\n"
            << "  reactive model-based:   " << reactive->convergence_steps
            << " step (one configuration push)\n"
            << "  reactive feedback:      " << feedback->convergence_steps
            << " idealized steps, " << feedback->probe_count
            << " on-air measurement probes (realistic)\n"
            << "Paper: 27 idealized / ~310 realistic feedback steps vs 1 for "
               "model-based; at minutes per feedback step that is hours of "
               "degraded service.\n";
  return 0;
}
