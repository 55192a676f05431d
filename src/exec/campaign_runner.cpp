#include "exec/campaign_runner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/window_planner.h"

namespace magus::exec {

namespace {

struct CampaignMetrics {
  obs::Counter& campaigns;
  obs::Counter& campaign_resumes;
  obs::Counter& upgrades_executed;
  obs::Counter& upgrades_replayed;
  obs::Counter& upgrades_skipped;
  obs::Counter& plans_carried;
  obs::Counter& plans_replanned;

  [[nodiscard]] static CampaignMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static CampaignMetrics metrics{
        registry.counter("exec.campaign.runs"),
        registry.counter("exec.campaign.resumes"),
        registry.counter("exec.campaign.upgrades_executed"),
        registry.counter("exec.campaign.upgrades_replayed"),
        registry.counter("exec.campaign.upgrades_skipped"),
        registry.counter("exec.campaign.plans_carried"),
        registry.counter("exec.campaign.plans_replanned"),
    };
    return metrics;
  }
};

[[nodiscard]] std::vector<char> campaign_start_payload(
    std::uint64_t seed, std::uint64_t upgrade_count,
    std::uint64_t window_count, bool resumed) {
  PayloadWriter w;
  w.u64(seed);
  w.u64(upgrade_count);
  w.u64(window_count);
  w.b(resumed);
  return w.take();
}

void append_upgrade_end(Journal& journal, const UpgradeResult& entry,
                        const net::Configuration& final_config) {
  PayloadWriter w;
  w.u64(entry.upgrade);
  w.u64(entry.window);
  w.u8(static_cast<std::uint8_t>(entry.outcome));
  w.b(entry.trace.completed);
  w.b(entry.trace.rolled_back);
  w.f64(entry.trace.floor_utility);
  w.f64(entry.trace.final_utility);
  w.f64(entry.trace.makespan_s);
  w.sectors(entry.trace.quarantined_sectors);
  w.config(final_config);
  journal.append(JournalRecordType::kUpgradeEnd, w.take());
}

/// Rebuilds a finished upgrade's result from its kUpgradeEnd record plus
/// the step records between its start and end — the resume path's
/// replacement for re-executing it.
[[nodiscard]] UpgradeResult decode_upgrade_end(
    const JournalRecord& record, std::span<const JournalRecord> step_records) {
  PayloadReader r{record.payload};
  UpgradeResult out;
  out.upgrade = static_cast<std::size_t>(r.u64());
  out.window = static_cast<std::size_t>(r.u64());
  out.outcome = static_cast<UpgradeOutcome>(r.u8());
  const bool completed = r.b();
  const bool rolled_back = r.b();
  const double floor_utility = r.f64();
  const double final_utility = r.f64();
  const double makespan_s = r.f64();
  std::vector<net::SectorId> quarantined = r.sectors();
  (void)r.config();  // final configuration: diagnostics, not resume state
  if (out.outcome == UpgradeOutcome::kSkippedQuarantined) return out;

  WindowResumeState state = recover_window_state(step_records);
  ExecutionTrace& trace = out.trace;
  trace.steps = std::move(state.steps);
  trace.fault_events = std::move(state.fault_events);
  trace.failed_sectors = std::move(state.failed);
  trace.quarantined_sectors = std::move(quarantined);
  trace.signaling = state.signaling;
  trace.retries = state.retries;
  trace.contingency_applies = state.contingency_applies;
  trace.replans = state.replans;
  trace.rollbacks = state.rollbacks;
  trace.floor_violations = state.floor_violations;
  trace.deadline_skips = state.deadline_skips;
  trace.completed = completed;
  trace.rolled_back = rolled_back;
  trace.floor_utility = floor_utility;
  trace.final_utility = final_utility;
  trace.makespan_s = makespan_s;
  for (const StepRecord& rec : trace.steps) {
    trace.total_lost_service_ue_seconds += rec.lost_service_ue_seconds;
  }
  return out;
}

}  // namespace

const char* upgrade_outcome_name(UpgradeOutcome outcome) {
  switch (outcome) {
    case UpgradeOutcome::kCompleted:
      return "completed";
    case UpgradeOutcome::kRolledBack:
      return "rolled_back";
    case UpgradeOutcome::kSkippedQuarantined:
      return "skipped_quarantined";
  }
  return "?";
}

std::uint64_t upgrade_seed(std::uint64_t campaign_seed,
                           std::size_t upgrade_index) {
  std::uint64_t z = campaign_seed + 0x9E3779B97F4A7C15ULL *
                                        (static_cast<std::uint64_t>(
                                             upgrade_index) +
                                         1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

util::JsonObject CampaignResult::to_json() const {
  util::JsonObject out;
  out.set("completed", completed);
  out.set("windows_total", static_cast<std::int64_t>(windows_total));
  out.set("windows_completed", static_cast<std::int64_t>(windows_completed));
  out.set("resumes", static_cast<std::int64_t>(resumes));
  out.set("quarantine_events", static_cast<std::int64_t>(quarantine_events));
  out.set("deadline_skips", static_cast<std::int64_t>(deadline_skips));

  std::int64_t completed_count = 0;
  std::int64_t rolled_back_count = 0;
  std::int64_t skipped_count = 0;
  std::int64_t retries = 0;
  std::int64_t contingency_applies = 0;
  std::int64_t replans = 0;
  std::int64_t rollbacks = 0;
  for (const UpgradeResult& entry : upgrades) {
    switch (entry.outcome) {
      case UpgradeOutcome::kCompleted:
        ++completed_count;
        break;
      case UpgradeOutcome::kRolledBack:
        ++rolled_back_count;
        break;
      case UpgradeOutcome::kSkippedQuarantined:
        ++skipped_count;
        break;
    }
    retries += entry.trace.retries;
    contingency_applies += entry.trace.contingency_applies;
    replans += entry.trace.replans;
    rollbacks += entry.trace.rollbacks;
  }
  out.set("upgrades_completed", completed_count);
  out.set("upgrades_rolled_back", rolled_back_count);
  out.set("upgrades_skipped_quarantined", skipped_count);
  out.set("retries", retries);
  out.set("contingency_applies", contingency_applies);
  out.set("replans", replans);
  out.set("rollbacks", rollbacks);

  util::JsonArray fenced;
  for (const net::SectorId s : quarantined_sectors) {
    fenced.push_back(static_cast<std::int64_t>(s));
  }
  out.set("quarantined_sectors", std::move(fenced));

  util::JsonArray entries;
  for (const UpgradeResult& entry : upgrades) {
    util::JsonObject item;
    item.set("upgrade", static_cast<std::int64_t>(entry.upgrade));
    item.set("window", static_cast<std::int64_t>(entry.window));
    item.set("outcome", upgrade_outcome_name(entry.outcome));
    item.set("resumed", entry.resumed);
    if (entry.outcome != UpgradeOutcome::kSkippedQuarantined) {
      item.set("trace", entry.trace.to_json());
    }
    entries.push_back(std::move(item));
  }
  out.set("upgrades", std::move(entries));
  return out;
}

CampaignRunner::CampaignRunner(core::Evaluator* evaluator,
                               const core::MagusPlanner* planner,
                               CampaignOptions options)
    : evaluator_(evaluator), planner_(planner), options_(options) {
  if (evaluator_ == nullptr || planner_ == nullptr) {
    throw std::invalid_argument(
        "CampaignRunner: evaluator and planner must not be null");
  }
  if (options_.window_utilization <= 0.0 ||
      options_.window_utilization > 1.0) {
    throw std::invalid_argument(
        "CampaignRunner: window_utilization outside (0, 1]");
  }
}

CampaignResult CampaignRunner::run(
    std::span<const traffic::PlannedUpgrade> upgrades,
    const traffic::CampaignSchedule& schedule, const CampaignEnv& env) const {
  if (!env.plans.empty()) {
    if (env.plans.size() != upgrades.size()) {
      throw std::invalid_argument(
          "CampaignRunner: carried plans are not parallel to the upgrades");
    }
    const auto cells =
        static_cast<std::size_t>(evaluator_->model().cell_count());
    for (std::size_t u = 0; u < upgrades.size(); ++u) {
      const core::MitigationPlan& plan = env.plans[u];
      if (plan.targets != upgrades[u].targets) {
        throw std::invalid_argument(
            "CampaignRunner: carried plan targets differ from its upgrade's");
      }
      if (plan.ue_density.size() != cells) {
        throw std::invalid_argument(
            "CampaignRunner: carried plan's UE density does not fit the "
            "model");
      }
    }
  }
  MAGUS_TRACE_SPAN("exec.campaign", "exec");
  CampaignMetrics& metrics = CampaignMetrics::get();
  CampaignResult result;
  result.windows_total = schedule.window_count();
  SectorQuarantine quarantine{options_.quarantine};

  // The quarantine set each window sees is snapshotted at the window's
  // *first* upgrade — breaker trips mid-window take effect next window.
  // Replay mirrors the snapshot point (the first kUpgradeStart of the
  // window) so a resumed campaign re-derives the identical fencing.
  std::size_t snap_window = static_cast<std::size_t>(-1);
  std::vector<net::SectorId> snap_active;
  const auto active_for_window =
      [&](std::size_t w) -> const std::vector<net::SectorId>& {
    if (w != snap_window) {
      snap_active = quarantine.active(w);
      snap_window = w;
    }
    return snap_active;
  };

  // Fault attribution happens once per finished upgrade, from its trace's
  // flattened fault events — identical whether the trace was executed live
  // or rebuilt from the journal, which is what makes resume deterministic.
  const auto feed_quarantine = [&](const ExecutionTrace& trace,
                                   std::size_t window, Journal* journal) {
    std::map<net::SectorId, int> counts;
    for (const FaultEvent& event : trace.fault_events) {
      if (event.sector != net::kInvalidSector) ++counts[event.sector];
    }
    for (const auto& [sector, count] : counts) {
      if (quarantine.record_faults(sector, count, window) &&
          journal != nullptr) {
        PayloadWriter w;
        w.i32(sector);
        w.u64(window);
        w.u64(window + quarantine.options().cooloff_windows);
        journal->append(JournalRecordType::kQuarantine, w.take());
      }
    }
  };

  // ---- Replay phase: rebuild campaign state from recovered records ----
  std::map<std::size_t, UpgradeResult> replayed;
  std::set<std::size_t> windows_ended;
  bool campaign_ended = false;
  bool upgrade_open = false;
  std::size_t open_upgrade = 0;
  std::size_t open_window = 0;
  std::size_t open_begin = 0;
  std::optional<WindowResumeState> inflight_state;
  std::size_t inflight_upgrade = 0;
  std::size_t inflight_window = 0;

  const std::span<const JournalRecord> recovered = env.recovered;
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    const JournalRecord& record = recovered[i];
    switch (record.type) {
      case JournalRecordType::kCampaignStart: {
        PayloadReader r{record.payload};
        const std::uint64_t seed = r.u64();
        const std::uint64_t upgrade_count = r.u64();
        const std::uint64_t window_count = r.u64();
        const bool was_resume = r.b();
        if (seed != options_.seed || upgrade_count != upgrades.size() ||
            window_count != schedule.window_count()) {
          throw std::runtime_error(
              "CampaignRunner: journal does not match this campaign");
        }
        if (was_resume) ++result.resumes;
        break;
      }
      case JournalRecordType::kUpgradeStart: {
        PayloadReader r{record.payload};
        const auto u = static_cast<std::size_t>(r.u64());
        const auto w = static_cast<std::size_t>(r.u64());
        const std::uint64_t seed = r.u64();
        if (u >= upgrades.size() || w >= schedule.window_count() ||
            seed != upgrade_seed(options_.seed, u)) {
          throw std::runtime_error(
              "CampaignRunner: journal upgrade does not match this campaign");
        }
        (void)active_for_window(w);
        upgrade_open = true;
        open_upgrade = u;
        open_window = w;
        open_begin = i + 1;
        break;
      }
      case JournalRecordType::kUpgradeEnd: {
        if (!upgrade_open) {
          throw std::runtime_error(
              "CampaignRunner: journal upgrade-end without start");
        }
        UpgradeResult done = decode_upgrade_end(
            record, recovered.subspan(open_begin, i - open_begin));
        if (done.upgrade != open_upgrade || done.window != open_window) {
          throw std::runtime_error(
              "CampaignRunner: journal upgrade-end does not match start");
        }
        if (done.outcome != UpgradeOutcome::kSkippedQuarantined) {
          feed_quarantine(done.trace, done.window, nullptr);
        }
        metrics.upgrades_replayed.add(1);
        replayed.emplace(done.upgrade, std::move(done));
        upgrade_open = false;
        break;
      }
      case JournalRecordType::kQuarantine:
        // Observability only: the breaker state is re-derived from the
        // fault events fed at each kUpgradeEnd.
        break;
      case JournalRecordType::kWindowEnd: {
        PayloadReader r{record.payload};
        windows_ended.insert(static_cast<std::size_t>(r.u64()));
        break;
      }
      case JournalRecordType::kCampaignEnd:
        campaign_ended = true;
        break;
      default:
        // Executor step records inside the open upgrade's span.
        break;
    }
  }
  if (upgrade_open) {
    inflight_upgrade = open_upgrade;
    inflight_window = open_window;
    inflight_state = recover_window_state(recovered.subspan(open_begin));
  }
  metrics.campaigns.add(1);
  if (!recovered.empty()) {
    ++result.resumes;
    metrics.campaign_resumes.add(1);
  }
  if (env.journal != nullptr && !campaign_ended) {
    env.journal->append(
        JournalRecordType::kCampaignStart,
        campaign_start_payload(options_.seed, upgrades.size(),
                               schedule.window_count(), !recovered.empty()));
  }

  // ---- Execution phase ----
  const MigrationExecutor executor{evaluator_, options_.executor};
  for (std::size_t w = 0; w < schedule.window_count(); ++w) {
    for (const std::size_t u : schedule.windows[w]) {
      if (const auto it = replayed.find(u); it != replayed.end()) {
        result.upgrades.push_back(std::move(it->second));
        continue;
      }
      const std::vector<net::SectorId>& quarantined_now =
          active_for_window(w);
      const traffic::PlannedUpgrade& spec = upgrades[u];
      UpgradeResult entry;
      entry.upgrade = u;
      entry.window = w;

      if (traffic::targets_quarantined(spec, quarantined_now)) {
        // A fenced-off target cannot be upgraded this campaign: skip it
        // instead of pushing configuration at dead equipment.
        entry.outcome = UpgradeOutcome::kSkippedQuarantined;
        metrics.upgrades_skipped.add(1);
        if (env.journal != nullptr) {
          PayloadWriter pw;
          pw.u64(u);
          pw.u64(w);
          pw.u64(upgrade_seed(options_.seed, u));
          env.journal->append(JournalRecordType::kUpgradeStart, pw.take());
          append_upgrade_end(*env.journal, entry,
                             evaluator_->model().configuration());
        }
        result.upgrades.push_back(std::move(entry));
        continue;
      }

      const bool resuming =
          inflight_state.has_value() && inflight_upgrade == u;
      if (resuming && inflight_window != w) {
        throw std::runtime_error(
            "CampaignRunner: in-flight upgrade recovered in wrong window");
      }
      if (!resuming && env.journal != nullptr) {
        PayloadWriter pw;
        pw.u64(u);
        pw.u64(w);
        pw.u64(upgrade_seed(options_.seed, u));
        env.journal->append(JournalRecordType::kUpgradeStart, pw.take());
      }

      // A carried plan holds for a window with nothing fenced off. Under
      // quarantine the plan is recomputed on the reduced sector set; a
      // resumed campaign re-derives the identical plan because the
      // quarantine snapshot, targets, and model inputs are identical.
      std::optional<core::MitigationPlan> replanned;
      if (env.plans.empty() || !quarantined_now.empty()) {
        replanned = planner_->plan_upgrade(spec.targets, quarantined_now);
        metrics.plans_replanned.add(1);
      } else {
        metrics.plans_carried.add(1);
      }
      const core::MitigationPlan& plan =
          replanned.has_value() ? *replanned : env.plans[u];
      std::unique_ptr<FaultInjector> injector;
      if (env.injector_factory) injector = env.injector_factory(u);

      ExecutionEnv xenv;
      xenv.injector = injector.get();
      xenv.contingencies = env.contingencies;
      xenv.replanner = planner_;
      xenv.journal = env.journal;
      if (options_.enforce_deadline) {
        xenv.time_budget_s = traffic::window_time_budget_s(
            spec.duration_hours, options_.window_utilization);
      }
      xenv.quarantined = quarantined_now;
      if (resuming) xenv.resume = &*inflight_state;

      entry.resumed = resuming;
      evaluator_->model().set_ue_density(plan.ue_density);
      entry.trace = executor.execute(plan.gradual, plan.targets,
                                     upgrade_seed(options_.seed, u), xenv);
      if (resuming) inflight_state.reset();
      entry.outcome = entry.trace.rolled_back ? UpgradeOutcome::kRolledBack
                                              : UpgradeOutcome::kCompleted;
      metrics.upgrades_executed.add(1);
      feed_quarantine(entry.trace, w, env.journal);
      if (env.journal != nullptr) {
        append_upgrade_end(*env.journal, entry,
                           evaluator_->model().configuration());
      }
      result.upgrades.push_back(std::move(entry));
    }
    if (env.journal != nullptr && !windows_ended.contains(w)) {
      PayloadWriter pw;
      pw.u64(w);
      env.journal->append(JournalRecordType::kWindowEnd, pw.take());
    }
    ++result.windows_completed;
  }
  if (env.journal != nullptr && !campaign_ended) {
    env.journal->append(JournalRecordType::kCampaignEnd, {});
  }

  result.completed = true;
  result.quarantine_events = quarantine.quarantine_events();
  result.quarantined_sectors = quarantine.ever_quarantined();
  for (const UpgradeResult& entry : result.upgrades) {
    result.deadline_skips += entry.trace.deadline_skips;
  }
  return result;
}

}  // namespace magus::exec
