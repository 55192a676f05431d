#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"

namespace magus::obs {

namespace {

/// Per-thread open-span depth; spans restore it on exit, so it tracks the
/// hierarchy even when the collector toggles mid-run.
thread_local int t_span_depth = 0;

/// Dense trace thread id, shared numbering with metrics shard slots'
/// source so worker N means the same thread everywhere.
[[nodiscard]] int this_thread_trace_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

int current_span_depth() { return t_span_depth; }

int trace_thread_id() { return this_thread_trace_id(); }

TraceCollector::TraceCollector()
    : serial_([] {
        // Never reused, unlike an address: a collector built where a
        // destroyed one lived gets its own serial.
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      epoch_ns_(monotonic_now_ns()) {}

void TraceCollector::start() {
  active_.store(true, std::memory_order_relaxed);
}

void TraceCollector::stop() {
  active_.store(false, std::memory_order_relaxed);
}

void TraceCollector::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Buffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

TraceCollector::Buffer& TraceCollector::local_buffer() {
  // One buffer per (collector, thread). The collector keeps a shared_ptr,
  // so buffers outlive their threads and survive until clear()/shutdown.
  // The cache is keyed by the collector's serial, not its address: a new
  // collector at a dead one's address must not inherit its orphan buffer.
  thread_local std::uint64_t t_owner = 0;
  thread_local std::shared_ptr<Buffer> t_buffer;
  if (t_owner != serial_ || !t_buffer) {
    t_buffer = std::make_shared<Buffer>();
    t_owner = serial_;
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(t_buffer);
  }
  return *t_buffer;
}

void TraceCollector::record(TraceEvent event) {
  Buffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceCollector::events() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> merged;
  for (const std::shared_ptr<Buffer>& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    merged.insert(merged.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;  // parents before children
            });
  return merged;
}

util::JsonObject TraceCollector::to_chrome_json() const {
  util::JsonArray trace_events;
  for (const TraceEvent& event : events()) {
    util::JsonObject e;
    e.set("name", event.name)
        .set("cat", event.category)
        .set("ph", std::string(1, event.phase))
        .set("ts", event.ts_us)
        .set("pid", static_cast<std::int64_t>(1))
        .set("tid", static_cast<std::int64_t>(event.thread_id));
    if (event.phase == 'X') e.set("dur", event.dur_us);
    if (event.phase == 'i') e.set("s", "t");  // instant scope: thread
    util::JsonObject args;
    args.set("depth", static_cast<std::int64_t>(event.depth));
    e.set("args", std::move(args));
    trace_events.push_back(std::move(e));
  }
  util::JsonObject out;
  out.set("displayTimeUnit", "ms");
  out.set("traceEvents", std::move(trace_events));
  return out;
}

void TraceCollector::write_file(const std::string& path) const {
  to_chrome_json().write_file(path);
}

double TraceCollector::now_us() const {
  return static_cast<double>(monotonic_now_ns() - epoch_ns_) / 1000.0;
}

double TraceCollector::us_since_epoch(std::uint64_t monotonic_ns) const {
  return (static_cast<double>(monotonic_ns) -
          static_cast<double>(epoch_ns_)) /
         1000.0;
}

TraceCollector& TraceCollector::global() {
  static TraceCollector* collector = new TraceCollector();  // never destroyed
  return *collector;
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name),
      category_(category),
      active_(TraceCollector::global().active()) {
  if (!active_) return;
  depth_ = t_span_depth++;
  start_us_ = TraceCollector::global().now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --t_span_depth;
  TraceCollector& collector = TraceCollector::global();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = collector.now_us() - start_us_;
  event.thread_id = this_thread_trace_id();
  event.depth = depth_;
  collector.record(std::move(event));
}

FineScopedSpan::FineScopedSpan(const char* name, const char* category)
    : name_(name),
      category_(category),
      active_(TraceCollector::global().detail_active()) {
  if (!active_) return;
  depth_ = t_span_depth++;
  start_us_ = TraceCollector::global().now_us();
}

FineScopedSpan::~FineScopedSpan() {
  if (!active_) return;
  --t_span_depth;
  TraceCollector& collector = TraceCollector::global();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = collector.now_us() - start_us_;
  event.thread_id = this_thread_trace_id();
  event.depth = depth_;
  collector.record(std::move(event));
}

DynamicSpan::DynamicSpan(std::string name, const char* category)
    : name_(std::move(name)),
      category_(category),
      active_(TraceCollector::global().active()) {
  if (!active_) return;
  depth_ = t_span_depth++;
  start_us_ = TraceCollector::global().now_us();
}

DynamicSpan::~DynamicSpan() {
  if (!active_) return;
  --t_span_depth;
  TraceCollector& collector = TraceCollector::global();
  TraceEvent event;
  event.name = std::move(name_);
  event.category = category_;
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = collector.now_us() - start_us_;
  event.thread_id = this_thread_trace_id();
  event.depth = depth_;
  collector.record(std::move(event));
}

void trace_instant(const char* name, const char* category) {
  TraceCollector& collector = TraceCollector::global();
  if (!collector.active()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  event.ts_us = collector.now_us();
  event.thread_id = this_thread_trace_id();
  event.depth = t_span_depth;
  collector.record(std::move(event));
}

}  // namespace magus::obs
