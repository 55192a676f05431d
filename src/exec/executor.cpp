#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/search_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace magus::exec {

namespace {

struct ExecMetrics {
  obs::Counter& windows;
  obs::Counter& steps;
  obs::Counter& retries;
  obs::Counter& contingency_applies;
  obs::Counter& replans;
  obs::Counter& rollbacks;
  obs::Counter& fault_injections;
  obs::Counter& floor_violations;
  obs::Counter& deadline_skips;
  obs::Counter& resumed_windows;
  obs::Histogram& step_duration_s;  ///< simulated wall-clock per step
  obs::Histogram& push_attempts;

  [[nodiscard]] static ExecMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static ExecMetrics metrics{
        registry.counter("exec.windows"),
        registry.counter("exec.steps"),
        registry.counter("exec.retries"),
        registry.counter("exec.contingency_applies"),
        registry.counter("exec.replans"),
        registry.counter("exec.rollbacks"),
        registry.counter("exec.fault_injections"),
        registry.counter("exec.floor_violations"),
        registry.counter("exec.deadline_skips"),
        registry.counter("exec.resumed_windows"),
        registry.histogram("exec.step_duration_s",
                           obs::exponential_bounds(1.0, 2.0, 12)),
        registry.histogram("exec.push_attempts",
                           obs::exponential_bounds(1.0, 2.0, 6)),
    };
    return metrics;
  }
};

[[nodiscard]] double band(double reference, double tolerance) {
  return tolerance * std::max(std::abs(reference), 1e-9);
}

/// The step configuration with every known-failed sector forced off-air:
/// plan steps were computed before the fault and would otherwise resurrect
/// a dead sector on the next push.
[[nodiscard]] net::Configuration masked(
    net::Configuration config, std::span<const net::SectorId> failed) {
  for (const net::SectorId s : failed) {
    config[s].active = false;
  }
  return config;
}

void sort_unique(std::vector<net::SectorId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

[[nodiscard]] util::JsonObject fault_json(const FaultEvent& event) {
  util::JsonObject out;
  out.set("kind", fault_kind_name(event.kind));
  out.set("step", static_cast<std::int64_t>(event.step));
  out.set("sector", static_cast<std::int64_t>(event.sector));
  if (event.kind == FaultKind::kHandoverFailure) {
    out.set("handover_failure_probability",
            event.handover_failure_probability);
  }
  if (event.kind == FaultKind::kConfigPushReject) {
    out.set("reject_attempts", static_cast<std::int64_t>(event.reject_attempts));
  }
  return out;
}

[[nodiscard]] util::JsonObject signaling_json(
    const sim::SignalingCounters& counters) {
  util::JsonObject out;
  out.set("measurement_reports", counters.measurement_reports);
  out.set("handover_requests", counters.handover_requests);
  out.set("handover_acks", counters.handover_acks);
  out.set("rrc_messages", counters.rrc_messages);
  out.set("path_switches", counters.path_switches);
  out.set("reattach_attempts", counters.reattach_attempts);
  out.set("failed_procedures", counters.failed_procedures);
  out.set("retried_procedures", counters.retried_procedures);
  out.set("total", counters.total());
  return out;
}

// ---- Journal payload codecs ----------------------------------------------

void encode_fault(PayloadWriter& w, const FaultEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.i32(event.step);
  w.i32(event.sector);
  w.f64(event.handover_failure_probability);
  w.i32(event.reject_attempts);
}

[[nodiscard]] FaultEvent decode_fault(PayloadReader& r) {
  FaultEvent event;
  event.kind = static_cast<FaultKind>(r.u8());
  event.step = r.i32();
  event.sector = r.i32();
  event.handover_failure_probability = r.f64();
  event.reject_attempts = r.i32();
  return event;
}

void encode_step_record(PayloadWriter& w, const StepRecord& rec) {
  w.i32(rec.step);
  w.u8(static_cast<std::uint8_t>(rec.status));
  w.u32(static_cast<std::uint32_t>(rec.faults.size()));
  for (const FaultEvent& event : rec.faults) encode_fault(w, event);
  w.u32(static_cast<std::uint32_t>(rec.actions.size()));
  for (const RecoveryAction action : rec.actions) {
    w.u8(static_cast<std::uint8_t>(action));
  }
  w.f64(rec.planned_utility);
  w.f64(rec.realized_utility);
  w.f64(rec.utility_after_recovery);
  w.b(rec.floor_violated);
  w.i32(rec.push_attempts);
  w.f64(rec.backoff_wait_s);
  w.f64(rec.seamless_ues);
  w.f64(rec.hard_ues);
  w.f64(rec.lost_service_ues);
  w.f64(rec.handover_failures);
  w.f64(rec.handover_retries);
  w.f64(rec.lost_service_ue_seconds);
}

[[nodiscard]] StepRecord decode_step_record(PayloadReader& r) {
  StepRecord rec;
  rec.step = r.i32();
  rec.status = static_cast<StepStatus>(r.u8());
  const std::uint32_t fault_count = r.u32();
  rec.faults.reserve(fault_count);
  for (std::uint32_t i = 0; i < fault_count; ++i) {
    rec.faults.push_back(decode_fault(r));
  }
  const std::uint32_t action_count = r.u32();
  rec.actions.reserve(action_count);
  for (std::uint32_t i = 0; i < action_count; ++i) {
    rec.actions.push_back(static_cast<RecoveryAction>(r.u8()));
  }
  rec.planned_utility = r.f64();
  rec.realized_utility = r.f64();
  rec.utility_after_recovery = r.f64();
  rec.floor_violated = r.b();
  rec.push_attempts = r.i32();
  rec.backoff_wait_s = r.f64();
  rec.seamless_ues = r.f64();
  rec.hard_ues = r.f64();
  rec.lost_service_ues = r.f64();
  rec.handover_failures = r.f64();
  rec.handover_retries = r.f64();
  rec.lost_service_ue_seconds = r.f64();
  return rec;
}

void encode_signaling(PayloadWriter& w, const sim::SignalingCounters& c) {
  w.f64(c.measurement_reports);
  w.f64(c.handover_requests);
  w.f64(c.handover_acks);
  w.f64(c.rrc_messages);
  w.f64(c.path_switches);
  w.f64(c.reattach_attempts);
  w.f64(c.failed_procedures);
  w.f64(c.retried_procedures);
}

[[nodiscard]] sim::SignalingCounters decode_signaling(PayloadReader& r) {
  sim::SignalingCounters c;
  c.measurement_reports = r.f64();
  c.handover_requests = r.f64();
  c.handover_acks = r.f64();
  c.rrc_messages = r.f64();
  c.path_switches = r.f64();
  c.reattach_attempts = r.f64();
  c.failed_procedures = r.f64();
  c.retried_procedures = r.f64();
  return c;
}

}  // namespace

const char* recovery_action_name(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRetry:
      return "retry";
    case RecoveryAction::kContingency:
      return "contingency";
    case RecoveryAction::kReplan:
      return "replan";
    case RecoveryAction::kRollback:
      return "rollback";
    case RecoveryAction::kDeadlineSkip:
      return "deadline_skip";
  }
  return "?";
}

const char* step_status_name(StepStatus status) {
  switch (status) {
    case StepStatus::kApplied:
      return "applied";
    case StepStatus::kRecovered:
      return "recovered";
    case StepStatus::kReplanned:
      return "replanned";
    case StepStatus::kRolledBack:
      return "rolled_back";
  }
  return "?";
}

util::JsonObject ExecutionTrace::to_json() const {
  util::JsonObject out;
  out.set("completed", completed);
  out.set("rolled_back", rolled_back);
  out.set("floor_utility", floor_utility);
  out.set("final_utility", final_utility);
  out.set("total_lost_service_ue_seconds", total_lost_service_ue_seconds);
  out.set("makespan_s", makespan_s);
  out.set("retries", static_cast<std::int64_t>(retries));
  out.set("contingency_applies", static_cast<std::int64_t>(contingency_applies));
  out.set("replans", static_cast<std::int64_t>(replans));
  out.set("rollbacks", static_cast<std::int64_t>(rollbacks));
  out.set("floor_violations", static_cast<std::int64_t>(floor_violations));
  out.set("deadline_skips", static_cast<std::int64_t>(deadline_skips));
  out.set("recovery_action_count",
          static_cast<std::int64_t>(recovery_action_count()));

  util::JsonArray failed;
  for (const net::SectorId s : failed_sectors) {
    failed.push_back(static_cast<std::int64_t>(s));
  }
  out.set("failed_sectors", std::move(failed));

  util::JsonArray quarantined;
  for (const net::SectorId s : quarantined_sectors) {
    quarantined.push_back(static_cast<std::int64_t>(s));
  }
  out.set("quarantined_sectors", std::move(quarantined));

  util::JsonArray faults;
  for (const FaultEvent& event : fault_events) {
    faults.push_back(fault_json(event));
  }
  out.set("fault_events", std::move(faults));

  out.set("signaling", signaling_json(signaling));

  util::JsonArray step_records;
  for (const StepRecord& rec : steps) {
    util::JsonObject step;
    step.set("step", static_cast<std::int64_t>(rec.step));
    step.set("status", step_status_name(rec.status));
    util::JsonArray step_faults;
    for (const FaultEvent& event : rec.faults) {
      step_faults.push_back(fault_json(event));
    }
    step.set("faults", std::move(step_faults));
    util::JsonArray actions;
    for (const RecoveryAction action : rec.actions) {
      actions.push_back(recovery_action_name(action));
    }
    step.set("actions", std::move(actions));
    step.set("planned_utility", rec.planned_utility);
    step.set("realized_utility", rec.realized_utility);
    step.set("utility_after_recovery", rec.utility_after_recovery);
    step.set("floor_violated", rec.floor_violated);
    step.set("push_attempts", static_cast<std::int64_t>(rec.push_attempts));
    step.set("backoff_wait_s", rec.backoff_wait_s);
    step.set("seamless_ues", rec.seamless_ues);
    step.set("hard_ues", rec.hard_ues);
    step.set("lost_service_ues", rec.lost_service_ues);
    step.set("handover_failures", rec.handover_failures);
    step.set("handover_retries", rec.handover_retries);
    step.set("lost_service_ue_seconds", rec.lost_service_ue_seconds);
    step_records.push_back(std::move(step));
  }
  out.set("steps", std::move(step_records));
  return out;
}

WindowResumeState recover_window_state(
    std::span<const JournalRecord> records) {
  WindowResumeState state;
  for (const JournalRecord& record : records) {
    // Only confirms carry state. The intent/fault/recovery records of an
    // unconfirmed step are deliberately skipped: that step re-executes
    // deterministically from the previous confirm's checkpoint.
    if (record.type != JournalRecordType::kStepConfirm) continue;
    PayloadReader r{record.payload};
    StepRecord rec = decode_step_record(r);
    for (const FaultEvent& event : rec.faults) {
      state.fault_events.push_back(event);
    }
    state.steps.push_back(std::move(rec));
    state.failed = r.sectors();
    state.live_config = r.config();
    state.last_safe = r.config();
    state.rng_state = r.rng_state();
    state.clock_s = r.f64();
    state.effective_floor = r.f64();
    state.finish_mode = r.b();
    state.aborted = r.b();
    state.replanned = r.b();
    state.next_k = r.u64();
    state.signaling = decode_signaling(r);
    state.retries = r.i32();
    state.contingency_applies = r.i32();
    state.replans = r.i32();
    state.rollbacks = r.i32();
    state.floor_violations = r.i32();
    state.deadline_skips = r.i32();
    if (!r.done()) {
      throw std::runtime_error("recover_window_state: trailing bytes");
    }
    state.has_progress = true;
  }
  return state;
}

MigrationExecutor::MigrationExecutor(core::Evaluator* evaluator,
                                     ExecutorOptions options)
    : evaluator_(evaluator), options_(options) {
  if (evaluator_ == nullptr) {
    throw std::invalid_argument("MigrationExecutor: evaluator must not be null");
  }
  if (options_.utility_tolerance < 0.0) {
    throw std::invalid_argument("MigrationExecutor: negative tolerance");
  }
  if (options_.step_interval_s <= 0.0) {
    throw std::invalid_argument("MigrationExecutor: step interval must be > 0");
  }
  if (options_.contingency_cost_s < 0.0 || options_.replan_cost_s < 0.0) {
    throw std::invalid_argument("MigrationExecutor: negative rung cost");
  }
}

ExecutionTrace MigrationExecutor::execute(
    const core::GradualPlan& plan, std::span<const net::SectorId> targets,
    std::uint64_t seed, FaultInjector* injector,
    const core::ContingencyTable* contingencies,
    const core::MagusPlanner* replanner) const {
  ExecutionEnv env;
  env.injector = injector;
  env.contingencies = contingencies;
  env.replanner = replanner;
  return execute(plan, targets, seed, env);
}

ExecutionTrace MigrationExecutor::execute(const core::GradualPlan& plan,
                                          std::span<const net::SectorId> targets,
                                          std::uint64_t seed,
                                          const ExecutionEnv& env) const {
  if (plan.steps.empty()) {
    throw std::invalid_argument("MigrationExecutor: empty plan");
  }
  MAGUS_TRACE_SPAN("exec.execute", "exec");
  ExecMetrics& metrics = ExecMetrics::get();
  metrics.windows.add(1);
  model::AnalysisModel& model = evaluator_->model();
  const double tol = options_.utility_tolerance;

  ExecutionTrace trace;
  trace.floor_utility = plan.floor_utility;
  trace.quarantined_sectors.assign(env.quarantined.begin(),
                                   env.quarantined.end());
  sort_unique(trace.quarantined_sectors);

  // Entry state: the plan's C_before. The planner leaves the model at
  // C_after, so re-arm it explicitly; the UE density is the plan's. The
  // baseline rates are captured here even when resuming — they are a
  // function of the entry configuration, so re-deriving them beats
  // journaling them.
  model.set_configuration(plan.steps.front().config);
  const std::vector<double> baseline_rates = core::capture_rates(model);
  net::Configuration last_safe = plan.steps.front().config;

  util::Xoshiro256ss rng{seed};
  std::vector<net::SectorId> failed;  // unplanned outages so far, sorted
  double clock_s = 0.0;
  // After a successful contingency apply the remaining ramp is stale; the
  // executor switches to finish mode and completes with one masked push of
  // the stored configuration. effective_floor is the rebased expectation.
  bool finish_mode = false;
  bool completion_pending = false;
  double effective_floor = plan.floor_utility;
  bool aborted = false;
  bool replanned = false;
  const std::size_t n = plan.steps.size();
  std::size_t k = 1;

  if (env.resume != nullptr && env.resume->has_progress) {
    // Re-enter exactly where the last confirmed step left the window. The
    // journal's checkpoint carries everything downstream of the entry
    // state; a confirmed configuration is restored, never re-pushed.
    const WindowResumeState& rs = *env.resume;
    metrics.resumed_windows.add(1);
    trace.steps = rs.steps;
    trace.fault_events = rs.fault_events;
    trace.signaling = rs.signaling;
    trace.retries = rs.retries;
    trace.contingency_applies = rs.contingency_applies;
    trace.replans = rs.replans;
    trace.rollbacks = rs.rollbacks;
    trace.floor_violations = rs.floor_violations;
    trace.deadline_skips = rs.deadline_skips;
    trace.resumed_steps = static_cast<int>(rs.steps.size());
    failed = rs.failed;
    clock_s = rs.clock_s;
    effective_floor = rs.effective_floor;
    finish_mode = rs.finish_mode;
    aborted = rs.aborted;
    replanned = rs.replanned;
    k = rs.next_k;
    model.set_configuration(rs.live_config);
    last_safe = rs.last_safe;
    rng.set_state(rs.rng_state);
    // Positional injectors (RandomFaultInjector draws one batch per poll)
    // must be wound forward through the confirmed steps so the next poll
    // lands where the original run's would have.
    if (env.injector != nullptr) {
      for (const StepRecord& rec : rs.steps) {
        (void)env.injector->faults_for_step(rec.step);
      }
    }
  }

  std::vector<net::SectorId> prev_service = model.service_map();

  // Quarantined sectors are pinned: every push holds their live settings.
  // Migration targets are exempt — a quarantined target is the campaign
  // layer's problem (it skips the upgrade), not a pinning concern.
  std::vector<net::SectorId> pinned(env.quarantined.begin(),
                                    env.quarantined.end());
  {
    std::vector<net::SectorId> sorted_targets(targets.begin(), targets.end());
    std::sort(sorted_targets.begin(), sorted_targets.end());
    std::erase_if(pinned, [&](net::SectorId s) {
      return std::binary_search(sorted_targets.begin(), sorted_targets.end(),
                                s);
    });
  }
  sort_unique(pinned);
  const auto pin_quarantined = [&](net::Configuration config) {
    const net::Configuration& live = model.configuration();
    for (const net::SectorId q : pinned) config[q] = live[q];
    return config;
  };

  // Deadline watchdog: a ladder rung only runs when its worst-case cost
  // still fits the remaining simulated budget. Rollback is the safety rung
  // and is never gated.
  const double budget = env.time_budget_s;
  const auto rung_fits = [&](double worst_cost) {
    return budget <= 0.0 || clock_s + worst_cost <= budget;
  };

  while (k < n && !aborted && !replanned) {
    MAGUS_TRACE_SPAN("exec.step", "exec");
    metrics.steps.add(1);
    const double step_clock_start = clock_s;
    StepRecord rec;
    rec.step = static_cast<int>(k);
    rec.planned_utility = plan.steps[k].utility;

    if (env.journal != nullptr) {
      PayloadWriter w;
      w.i32(rec.step);
      w.b(finish_mode);
      w.f64(clock_s);
      env.journal->append(JournalRecordType::kStepIntent, w.take());
    }
    const auto journal_recovery = [&](RecoveryAction action) {
      if (env.journal == nullptr) return;
      PayloadWriter w;
      w.i32(rec.step);
      w.u8(static_cast<std::uint8_t>(action));
      env.journal->append(JournalRecordType::kRecovery, w.take());
    };
    const auto skip_rung = [&](RecoveryAction rung, double worst_cost) {
      rec.actions.push_back(RecoveryAction::kDeadlineSkip);
      ++trace.deadline_skips;
      metrics.deadline_skips.add(1);
      if (env.journal != nullptr) {
        PayloadWriter w;
        w.i32(rec.step);
        w.u8(static_cast<std::uint8_t>(rung));
        w.f64(worst_cost);
        w.f64(budget - clock_s);
        env.journal->append(JournalRecordType::kDeadlineSkip, w.take());
      }
    };

    // ---- Faults striking this step ----
    double storm_probability = 0.0;
    int rejects_remaining = 0;
    if (env.injector != nullptr) {
      for (const FaultEvent& event :
           env.injector->faults_for_step(static_cast<int>(k))) {
        rec.faults.push_back(event);
        trace.fault_events.push_back(event);
        if (env.journal != nullptr) {
          PayloadWriter w;
          encode_fault(w, event);
          env.journal->append(JournalRecordType::kFault, w.take());
        }
        switch (event.kind) {
          case FaultKind::kSectorOutage:
            if (event.sector != net::kInvalidSector &&
                !std::binary_search(failed.begin(), failed.end(),
                                    event.sector)) {
              model.set_active(event.sector, false);
              failed.push_back(event.sector);
              sort_unique(failed);
            }
            break;
          case FaultKind::kHandoverFailure:
            storm_probability = std::max(
                storm_probability, event.handover_failure_probability);
            break;
          case FaultKind::kConfigPushReject:
            rejects_remaining += std::max(1, event.reject_attempts);
            break;
        }
      }
    }
    const bool structural = !failed.empty();

    // ---- Configuration push (with backoff against OSS rejects) ----
    net::Configuration intended;
    if (finish_mode) {
      // Completion push: hold the contingency configuration, take the
      // migration targets (and everything failed) off-air.
      intended = model.configuration();
      for (const net::SectorId t : targets) intended[t].active = false;
      intended = masked(std::move(intended), failed);
    } else {
      intended = masked(pin_quarantined(plan.steps[k].config), failed);
    }
    bool pushed = false;
    for (int attempt = 0; attempt < options_.push_backoff.max_attempts;
         ++attempt) {
      const double wait =
          options_.push_backoff.delay_before_attempt_s(attempt);
      rec.backoff_wait_s += wait;
      clock_s += wait;
      rec.push_attempts = attempt + 1;
      if (rejects_remaining > 0) {
        --rejects_remaining;
        continue;
      }
      model.set_configuration(intended);
      pushed = true;
      break;
    }
    if (rec.push_attempts > 1) {
      // The backoff loop itself is the first ladder rung in action.
      rec.actions.push_back(RecoveryAction::kRetry);
      journal_recovery(RecoveryAction::kRetry);
      ++trace.retries;
    }

    // ---- Handover signaling for this transition ----
    const std::vector<net::SectorId> cur_service = model.service_map();
    const net::Configuration& live = model.configuration();
    sim::HandoverTimings timings = options_.handover;
    timings.failure_probability =
        std::max(timings.failure_probability, storm_probability);
    const sim::HandoverProcedure procedure{timings};
    sim::EventQueue queue;
    sim::SignalingCounters counters;
    std::vector<sim::HandoverOutcome> outcomes;
    const std::span<const double> density = model.ue_density();
    for (std::size_t i = 0; i < prev_service.size(); ++i) {
      const net::SectorId src = prev_service[i];
      const net::SectorId dst = cur_service[i];
      if (src == dst || src == net::kInvalidSector) continue;
      const double ues = density.empty() ? 0.0 : density[i];
      if (ues <= 0.0) continue;
      if (dst == net::kInvalidSector) {
        rec.lost_service_ues += ues;
        continue;
      }
      const bool src_alive = live[src].active;
      const sim::HandoverKind kind = src_alive ? sim::HandoverKind::kSeamless
                                               : sim::HandoverKind::kHard;
      if (src_alive) {
        rec.seamless_ues += ues;
      } else {
        rec.hard_ues += ues;
      }
      procedure.start(queue, kind, ues, &counters, &outcomes, &rng);
    }
    queue.run();
    rec.handover_failures = counters.failed_procedures;
    rec.handover_retries = counters.retried_procedures;
    if (counters.retried_procedures > 0.0) {
      // FSM-level retry/backoff absorbed handover failures: record it as
      // a recovery action so storms are visible in the trace.
      if (rec.actions.empty() ||
          rec.actions.back() != RecoveryAction::kRetry) {
        rec.actions.push_back(RecoveryAction::kRetry);
      }
      journal_recovery(RecoveryAction::kRetry);
      ++trace.retries;
    }
    trace.signaling += counters;
    double outage_ue_seconds = 0.0;
    for (const sim::HandoverOutcome& outcome : outcomes) {
      outage_ue_seconds += outcome.ue_weight * outcome.outage_s;
    }
    // UEs pushed out of service stay dark at least until the next push.
    rec.lost_service_ue_seconds =
        rec.lost_service_ues * options_.step_interval_s + outage_ue_seconds;
    clock_s += options_.step_interval_s;

    // ---- Utility monitoring and the degradation ladder ----
    double realized = evaluator_->evaluate();
    rec.realized_utility = realized;
    // The plan's per-step utility is the expectation — it is what makes a
    // fault *detectable*. Only in finish mode (the ramp already superseded
    // by a contingency) does the rebased floor replace it.
    const double expectation =
        finish_mode ? effective_floor : rec.planned_utility;
    const double bar = expectation - band(expectation, tol);
    // The completion push's utility cost is intrinsic — the targets go
    // off-air in a faulted network, and no precomputed expectation covers
    // that state. Only a failed push (or, when a re-planner is armed, a
    // result below the rebased floor) counts as divergence there.
    const bool diverged =
        finish_mode ? (!pushed || (options_.allow_replan &&
                                   env.replanner != nullptr && realized < bar))
                    : (!pushed || realized < bar);
    bool recovered = !diverged;

    if (diverged && options_.allow_retry && !recovered) {
      // Rung 1: one more push of the intended configuration. Cheap, and
      // the only rung transient faults need. Worst case per the watchdog:
      // the policy's full capped backoff schedule.
      const double retry_worst =
          options_.push_backoff.worst_case_total_delay_s();
      if (!rung_fits(retry_worst)) {
        skip_rung(RecoveryAction::kRetry, retry_worst);
      } else {
        const double wait = options_.push_backoff.delay_before_attempt_s(1);
        rec.backoff_wait_s += wait;
        clock_s += wait;
        ++rec.push_attempts;
        if (rejects_remaining > 0) {
          --rejects_remaining;
        } else {
          model.set_configuration(intended);
          pushed = true;
        }
        rec.actions.push_back(RecoveryAction::kRetry);
        journal_recovery(RecoveryAction::kRetry);
        ++trace.retries;
        realized = evaluator_->evaluate();
        recovered = pushed && realized >= bar;
      }
    }

    if (diverged && !recovered && !finish_mode && options_.allow_contingency &&
        env.contingencies != nullptr && structural) {
      if (!rung_fits(options_.contingency_cost_s)) {
        skip_rung(RecoveryAction::kContingency, options_.contingency_cost_s);
      } else {
        // Rung 2: precomputed contingency, exact or nearest-match.
        // Quarantined sectors veto entries that reference them and are
        // pinned through the push.
        const core::ContingencyTable::NearestMatch match =
            env.contingencies->lookup_nearest(failed, pinned);
        if (match.plan != nullptr &&
            env.contingencies->apply(model, failed, /*allow_nearest=*/true,
                                     pinned)) {
          clock_s += options_.contingency_cost_s;
          rec.actions.push_back(RecoveryAction::kContingency);
          journal_recovery(RecoveryAction::kContingency);
          ++trace.contingency_applies;
          realized = evaluator_->evaluate();
          const double promised = match.plan->f_after;
          if (realized >= promised - band(promised, tol) || realized >= bar) {
            recovered = true;
            finish_mode = true;
            completion_pending = true;
            effective_floor = std::min(effective_floor, realized);
            pushed = true;
          }
        }
      }
    }

    if (diverged && !recovered && options_.allow_replan &&
        env.replanner != nullptr) {
      if (!rung_fits(options_.replan_cost_s)) {
        skip_rung(RecoveryAction::kReplan, options_.replan_cost_s);
      } else {
        // Rung 3: bounded local re-plan from the faulted state. Completes
        // the migration in one emergency push (targets and failures off).
        std::vector<net::SectorId> replan_targets(targets.begin(),
                                                  targets.end());
        replan_targets.insert(replan_targets.end(), failed.begin(),
                              failed.end());
        sort_unique(replan_targets);
        const core::MitigationPlan rplan = env.replanner->replan_from_current(
            replan_targets, baseline_rates, pinned);
        clock_s += options_.replan_cost_s;
        rec.actions.push_back(RecoveryAction::kReplan);
        journal_recovery(RecoveryAction::kReplan);
        ++trace.replans;
        realized = evaluator_->evaluate();
        // Accept unless the re-plan somehow made things worse than doing
        // nothing from the faulted state.
        if (realized >= rplan.f_upgrade - band(rplan.f_upgrade, tol)) {
          recovered = true;
          replanned = true;
          pushed = true;
        }
      }
    }

    if (diverged && !recovered) {
      // Rung 4: roll back to the last configuration that was in
      // tolerance and abort the window. The safety rung — never gated by
      // the deadline watchdog.
      model.set_configuration(masked(last_safe, failed));
      rec.actions.push_back(RecoveryAction::kRollback);
      journal_recovery(RecoveryAction::kRollback);
      ++trace.rollbacks;
      realized = evaluator_->evaluate();
      aborted = true;
    }

    rec.utility_after_recovery = realized;
    rec.floor_violated =
        realized < plan.floor_utility - band(plan.floor_utility, tol);
    if (rec.floor_violated) ++trace.floor_violations;
    if (aborted) {
      rec.status = StepStatus::kRolledBack;
    } else if (replanned) {
      rec.status = StepStatus::kReplanned;
    } else if (diverged) {
      rec.status = StepStatus::kRecovered;
    } else {
      rec.status = StepStatus::kApplied;
    }
    if (!diverged && !finish_mode) last_safe = intended;
    prev_service = model.service_map();
    metrics.step_duration_s.observe(clock_s - step_clock_start);
    metrics.push_attempts.observe(rec.push_attempts);

    // A stale ramp is not worth walking: after a successful contingency
    // the final step index re-runs as the completion push, then the loop
    // exits.
    std::size_t next_k = k + 1;
    if (completion_pending && !aborted && !replanned) {
      completion_pending = false;
      next_k = n - 1;
    }

    if (env.journal != nullptr) {
      // The confirm is the checkpoint: this step's record plus the full
      // cumulative state a resume needs to continue from next_k.
      PayloadWriter w;
      encode_step_record(w, rec);
      w.sectors(failed);
      w.config(model.configuration());
      w.config(last_safe);
      w.rng_state(rng.state());
      w.f64(clock_s);
      w.f64(effective_floor);
      w.b(finish_mode);
      w.b(aborted);
      w.b(replanned);
      w.u64(next_k);
      encode_signaling(w, trace.signaling);
      w.i32(trace.retries);
      w.i32(trace.contingency_applies);
      w.i32(trace.replans);
      w.i32(trace.rollbacks);
      w.i32(trace.floor_violations);
      w.i32(trace.deadline_skips);
      env.journal->append(JournalRecordType::kStepConfirm, w.take());
    }
    trace.steps.push_back(std::move(rec));
    k = next_k;
  }

  trace.failed_sectors = failed;
  trace.rolled_back = aborted;
  trace.completed = !aborted;
  trace.final_utility = evaluator_->evaluate();
  trace.makespan_s = clock_s;
  for (const StepRecord& rec : trace.steps) {
    trace.total_lost_service_ue_seconds += rec.lost_service_ue_seconds;
  }
  metrics.retries.add(static_cast<std::uint64_t>(trace.retries));
  metrics.contingency_applies.add(
      static_cast<std::uint64_t>(trace.contingency_applies));
  metrics.replans.add(static_cast<std::uint64_t>(trace.replans));
  metrics.rollbacks.add(static_cast<std::uint64_t>(trace.rollbacks));
  metrics.floor_violations.add(
      static_cast<std::uint64_t>(trace.floor_violations));
  metrics.fault_injections.add(trace.fault_events.size());
  return trace;
}

}  // namespace magus::exec
