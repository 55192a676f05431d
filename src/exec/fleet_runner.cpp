#include "exec/fleet_runner.h"

#include <optional>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace magus::exec {

std::uint64_t market_campaign_seed(std::uint64_t fleet_seed,
                                   std::int32_t market_key) {
  std::uint64_t z =
      fleet_seed + 0x9E3779B97F4A7C15ULL *
                       (static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(market_key)) +
                        0x464C54ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

CampaignResult FleetRunner::run_market(const MarketCampaignRefs& refs,
                                       bool resume) const {
  if (refs.schedule == nullptr || refs.evaluator == nullptr ||
      refs.planner == nullptr) {
    throw std::invalid_argument(
        "FleetRunner: schedule, evaluator and planner must not be null");
  }
  const obs::DynamicSpan market_span{
      "exec.run_market." + std::to_string(refs.market_key), "exec"};
  CampaignOptions options = base_;
  options.seed = market_campaign_seed(base_.seed, refs.market_key);
  const CampaignRunner runner{refs.evaluator, refs.planner, options};

  CampaignEnv env;
  env.plans = refs.plans;
  env.contingencies = refs.contingencies;
  env.injector_factory = refs.injector_factory;

  // The replayed records must stay alive across run(): keep them (and the
  // reopened journal) in scope here.
  Journal::Replay replay;
  std::optional<Journal> journal;
  if (!refs.journal_path.empty()) {
    if (resume) {
      replay = Journal::replay(refs.journal_path);
      journal.emplace(refs.journal_path, Journal::Mode::kContinue);
      env.recovered = replay.records;
    } else {
      journal.emplace(refs.journal_path, Journal::Mode::kTruncate);
    }
    env.journal = &*journal;
  }
  return runner.run(refs.upgrades, *refs.schedule, env);
}

}  // namespace magus::exec
