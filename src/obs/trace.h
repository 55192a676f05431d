// Hierarchical tracing with Chrome trace-event JSON export.
//
// ScopedSpan records one complete ("ph":"X") event per wrapped scope:
// wall-clock start relative to the collector's epoch, duration, the small
// dense thread id shared with obs/metrics, and the nesting depth of the
// span on its thread. Spans nest naturally — chrome://tracing / Perfetto
// stack same-thread events by timestamp containment — and the recorded
// depth lets tests assert the hierarchy without a viewer.
//
// Cost model, in order:
//   * MAGUS_TRACE=0 (compile time)  — the macros expand to ((void)0);
//     instrumented code carries no trace code at all. This is the
//     compile-out contract the evaluator hot path relies on.
//   * collector inactive (runtime)  — one relaxed atomic load + branch.
//   * collector active              — two steady_clock reads and one
//     push_back into a per-thread buffer (its mutex is uncontended; only
//     the merge in events()/export takes it from another thread).
//
// Events are collected process-wide by TraceCollector::global(); the
// --trace flag (obs/session.h) starts it and writes the JSON artifact.
#pragma once

#ifndef MAGUS_TRACE
#define MAGUS_TRACE 1
#endif

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace magus::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';     ///< 'X' complete span, 'i' instant
  double ts_us = 0.0;   ///< start, µs since the collector epoch
  double dur_us = 0.0;  ///< span duration (0 for instants)
  int thread_id = 0;    ///< dense id (see obs/metrics.h)
  int depth = 0;        ///< span nesting depth on its thread (0 = root)
};

class TraceCollector {
 public:
  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Starts collection (idempotent). Previously collected events are kept;
  /// call clear() first for a fresh window.
  void start();
  void stop();
  [[nodiscard]] bool active() const {
    return active_.load(std::memory_order_relaxed);
  }
  void clear();

  /// Detail mode gates the high-volume instrumentation sites (per-candidate
  /// evaluation spans — MAGUS_TRACE_SPAN_FINE). --trace leaves it off so
  /// trace artifacts stay per-batch sized; --profile turns it on because
  /// self-time attribution needs the per-task compute spans.
  void set_detail(bool detail) {
    detail_.store(detail, std::memory_order_relaxed);
  }
  [[nodiscard]] bool detail_active() const {
    return active() && detail_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's buffer. Callers normally go
  /// through ScopedSpan / trace_instant, which check active() first.
  void record(TraceEvent event);

  /// Merged copy of every thread's events, sorted by (ts, dur descending)
  /// so parents precede their children.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Chrome trace-event format: {"displayTimeUnit": "ms",
  /// "traceEvents": [...]} — load the file in chrome://tracing or
  /// https://ui.perfetto.dev.
  [[nodiscard]] util::JsonObject to_chrome_json() const;
  void write_file(const std::string& path) const;

  /// µs since the collector's epoch (process start, effectively).
  [[nodiscard]] double now_us() const;

  /// Converts a monotonic_now_ns() timestamp to epoch-relative µs, so
  /// instrumentation that measured an interval with raw clock reads (the
  /// thread-pool wait hook) can emit events on the span timeline.
  [[nodiscard]] double us_since_epoch(std::uint64_t monotonic_ns) const;

  [[nodiscard]] static TraceCollector& global();

 private:
  struct Buffer {
    std::mutex mutex;  ///< guards events: owner thread vs merging reader
    std::vector<TraceEvent> events;
  };

  [[nodiscard]] Buffer& local_buffer();

  /// Process-unique id keying the per-thread buffer cache.
  const std::uint64_t serial_;
  std::atomic<bool> active_{false};
  std::atomic<bool> detail_{false};
  std::uint64_t epoch_ns_;
  mutable std::mutex mutex_;  ///< guards buffers_
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// Depth of the innermost open span on this thread (0 = none). Exposed for
/// the nesting tests.
[[nodiscard]] int current_span_depth();

/// The calling thread's dense trace id (shared numbering with the metrics
/// shards). For instrumentation that records TraceEvents directly.
[[nodiscard]] int trace_thread_id();

class ScopedSpan {
 public:
  /// Both strings must outlive the span (string literals in practice —
  /// nothing is copied unless the collector is active at entry).
  ScopedSpan(const char* name, const char* category);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  int depth_ = 0;
  bool active_;
};

/// ScopedSpan gated on detail_active(): the span is only recorded in
/// profile mode. For high-volume sites (one span per candidate evaluation)
/// where a plain --trace artifact would balloon.
class FineScopedSpan {
 public:
  FineScopedSpan(const char* name, const char* category);
  ~FineScopedSpan();
  FineScopedSpan(const FineScopedSpan&) = delete;
  FineScopedSpan& operator=(const FineScopedSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  int depth_ = 0;
  bool active_;
};

/// ScopedSpan with a runtime-built name (per-market timelines and other
/// low-volume sites where the label carries an id). The name is copied, so
/// it need not outlive the span; use the literal-name classes on hot paths.
class DynamicSpan {
 public:
  DynamicSpan(std::string name, const char* category);
  ~DynamicSpan();
  DynamicSpan(const DynamicSpan&) = delete;
  DynamicSpan& operator=(const DynamicSpan&) = delete;

 private:
  std::string name_;
  const char* category_;
  double start_us_ = 0.0;
  int depth_ = 0;
  bool active_;
};

/// Records a zero-duration instant event (collector active only).
void trace_instant(const char* name, const char* category);

}  // namespace magus::obs

// Compile-out macro path: with -DMAGUS_TRACE=0 every instrumentation site
// vanishes entirely (zero code, zero branches). Span names/categories must
// be string literals.
#if MAGUS_TRACE
#define MAGUS_TRACE_CONCAT_INNER(a, b) a##b
#define MAGUS_TRACE_CONCAT(a, b) MAGUS_TRACE_CONCAT_INNER(a, b)
#define MAGUS_TRACE_SPAN(name, category)                        \
  ::magus::obs::ScopedSpan MAGUS_TRACE_CONCAT(magus_trace_span_, \
                                              __COUNTER__) {     \
    (name), (category)                                           \
  }
#define MAGUS_TRACE_SPAN_FINE(name, category)                        \
  ::magus::obs::FineScopedSpan MAGUS_TRACE_CONCAT(magus_trace_fine_, \
                                                  __COUNTER__) {     \
    (name), (category)                                               \
  }
#define MAGUS_TRACE_INSTANT(name, category) \
  ::magus::obs::trace_instant((name), (category))
#else
#define MAGUS_TRACE_SPAN(name, category) ((void)0)
#define MAGUS_TRACE_SPAN_FINE(name, category) ((void)0)
#define MAGUS_TRACE_INSTANT(name, category) ((void)0)
#endif
