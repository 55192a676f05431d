#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace magus::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the round-trip checks: parses the subset the
// writers emit (objects, arrays, strings with escapes, numbers, booleans,
// null) and exposes just enough structure to assert on. Throws on any
// malformed input, which is the point — the emitted artifacts must parse.
// ---------------------------------------------------------------------------
struct MiniJson {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, MiniJson>> object;
  std::vector<MiniJson> array;

  [[nodiscard]] const MiniJson* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const MiniJson& at(const std::string& key) const {
    const MiniJson* value = find(key);
    if (value == nullptr) throw std::runtime_error("missing key: " + key);
    return *value;
  }
};

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  [[nodiscard]] MiniJson parse() {
    MiniJson value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing content");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  MiniJson parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        return parse_null();
      default:
        return parse_number();
    }
  }

  MiniJson parse_object() {
    expect('{');
    MiniJson out;
    out.kind = MiniJson::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      MiniJson key = parse_string();
      expect(':');
      out.object.emplace_back(key.string, parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  MiniJson parse_array() {
    expect('[');
    MiniJson out;
    out.kind = MiniJson::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  MiniJson parse_string() {
    expect('"');
    MiniJson out;
    out.kind = MiniJson::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.string.push_back(esc);
          break;
        case 'n':
          out.string.push_back('\n');
          break;
        case 't':
          out.string.push_back('\t');
          break;
        case 'r':
          out.string.push_back('\r');
          break;
        case 'b':
          out.string.push_back('\b');
          break;
        case 'f':
          out.string.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          out.string.push_back(
              static_cast<char>(std::stoi(hex, nullptr, 16) & 0xff));
          break;
        }
        default:
          throw std::runtime_error("unknown escape");
      }
    }
  }

  MiniJson parse_bool() {
    MiniJson out;
    out.kind = MiniJson::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      out.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return out;
  }

  MiniJson parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    pos_ += 4;
    return MiniJson{};
  }

  MiniJson parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    MiniJson out;
    out.kind = MiniJson::Kind::kNumber;
    out.number = std::stod(text_.substr(start, pos_ - start));
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(Metrics, ExponentialBounds) {
  const std::vector<double> bounds = exponential_bounds(1.0, 2.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Metrics, HistogramBucketPlacement) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  Histogram& hist = registry.histogram("h", bounds);
  // Upper edges are inclusive: 1.0 lands in bucket 0, 1.5 in bucket 1,
  // 4.0 in bucket 2, anything above in the overflow bucket.
  hist.observe(0.5);
  hist.observe(1.0);
  hist.observe(1.5);
  hist.observe(4.0);
  hist.observe(100.0);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms.front().second;
  EXPECT_EQ(h.buckets, (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum / 5.0);
}

TEST(Metrics, HistogramQuantileInterpolation) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h", std::vector<double>{10.0, 20.0});
  // 10 observations in (0, 10], 10 in (10, 20].
  for (int i = 0; i < 10; ++i) hist.observe(5.0);
  for (int i = 0; i < 10; ++i) hist.observe(15.0);
  const HistogramSnapshot h =
      registry.snapshot().histograms.front().second;
  // p50 = exactly the full first bucket -> its upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  // p75 = halfway through the second bucket: 10 + 0.5 * (20 - 10).
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(Metrics, QuantileOverflowBucketReportsLastEdge) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h", std::vector<double>{1.0});
  hist.observe(50.0);
  const HistogramSnapshot h =
      registry.snapshot().histograms.front().second;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
}

// Pins the overflow contract: a quantile that lands in the unbounded
// overflow bucket is the last finite edge reported as a *saturated lower
// bound* — never an interpolated midpoint — and the display form carries
// a "+" marker so nobody reads it as a point estimate.
TEST(Metrics, QuantileOverflowSaturationIsMarked) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("h", std::vector<double>{10.0, 20.0});
  hist.observe(5.0);     // (0, 10]
  hist.observe(15.0);    // (10, 20]
  hist.observe(1000.0);  // overflow
  hist.observe(2000.0);  // overflow
  const HistogramSnapshot h =
      registry.snapshot().histograms.front().second;

  const auto p25 = h.quantile_with_overflow(0.25);
  EXPECT_FALSE(p25.saturated);
  EXPECT_LE(p25.value, 10.0);

  // p99 falls in the overflow bucket: value clamps to the last edge (not
  // some midpoint above it) and is flagged saturated.
  const auto p99 = h.quantile_with_overflow(0.99);
  EXPECT_TRUE(p99.saturated);
  EXPECT_DOUBLE_EQ(p99.value, 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20.0);

  EXPECT_EQ(h.quantile_label(0.99), "20.000+");
  EXPECT_EQ(h.quantile_label(0.25).find('+'), std::string::npos);

  // The saturation flag round-trips into the JSON artifact.
  MetricsRegistry flagged;
  flagged.histogram("sat", std::vector<double>{1.0}).observe(9.0);
  const std::string json = flagged.snapshot().to_json().dump();
  EXPECT_NE(json.find("\"p99_saturated\": true"), std::string::npos);

  // And into the table.
  const std::string table = flagged.snapshot().to_table();
  EXPECT_NE(table.find("1.000+"), std::string::npos);
}

TEST(Metrics, SnapshotJsonCarriesRunMetadata) {
  MetricsRegistry registry;
  registry.counter("c").add(1);
  const std::string json = registry.snapshot().to_json().dump();
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp_utc\""), std::string::npos);
  EXPECT_NE(json.find("\"hardware_threads\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\""), std::string::npos);
}

TEST(Metrics, EmptyHistogramQuantileIsZero) {
  HistogramSnapshot h;
  h.bounds = {1.0, 2.0};
  h.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Metrics, RegistryReturnsSameInstanceAndChecksKind) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((void)registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("x", std::vector<double>{1.0}),
               std::invalid_argument);

  (void)registry.histogram("h", std::vector<double>{1.0, 2.0});
  EXPECT_THROW((void)registry.histogram("h", std::vector<double>{1.0, 3.0}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)registry.histogram("h", std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, SnapshotSortedByNameAndCounterLookup) {
  MetricsRegistry registry;
  registry.counter("b.second").add(2);
  registry.counter("a.first").add(1);
  registry.gauge("z.gauge").set(7.0);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.counter_value("b.second"), 2u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
}

TEST(Metrics, SnapshotJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("planner.plans").add(3);
  registry.gauge("sim.load").set(0.25);
  registry.histogram("eval.latency_us", std::vector<double>{1.0, 10.0})
      .observe(5.0);

  const std::string text = registry.snapshot().to_json().dump();
  const MiniJson parsed = MiniJsonParser{text}.parse();
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("planner.plans").number, 3.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("sim.load").number, 0.25);
  const MiniJson& hist = parsed.at("histograms").at("eval.latency_us");
  EXPECT_EQ(hist.at("bounds").array.size(), 2u);
  EXPECT_EQ(hist.at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 5.0);
}

TEST(Metrics, TableListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("c.one").add(1);
  registry.gauge("g.two").set(2.0);
  registry.histogram("h.three", std::vector<double>{1.0}).observe(0.5);
  const std::string table = registry.snapshot().to_table();
  EXPECT_NE(table.find("c.one"), std::string::npos);
  EXPECT_NE(table.find("g.two"), std::string::npos);
  EXPECT_NE(table.find("h.three"), std::string::npos);
}

TEST(Metrics, ScopedTimerObservesElapsed) {
  MetricsRegistry registry;
  Histogram& hist =
      registry.histogram("t.us", exponential_bounds(1.0, 10.0, 8));
  { ScopedTimerUs timer{hist}; }
  const HistogramSnapshot h =
      registry.snapshot().histograms.front().second;
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.sum, 0.0);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(Trace, InactiveCollectorRecordsNothing) {
  TraceCollector& collector = TraceCollector::global();
  collector.stop();
  collector.clear();
  { MAGUS_TRACE_SPAN("ignored", "test"); }
  MAGUS_TRACE_INSTANT("also-ignored", "test");
  EXPECT_TRUE(collector.events().empty());
}

TEST(Trace, SpanNestingDepthAndContainment) {
  TraceCollector& collector = TraceCollector::global();
  collector.clear();
  collector.start();
  EXPECT_EQ(current_span_depth(), 0);
  {
    MAGUS_TRACE_SPAN("outer", "test");
#if MAGUS_TRACE
    EXPECT_EQ(current_span_depth(), 1);
#endif
    {
      MAGUS_TRACE_SPAN("inner", "test");
#if MAGUS_TRACE
      EXPECT_EQ(current_span_depth(), 2);
#endif
    }
  }
  EXPECT_EQ(current_span_depth(), 0);
  collector.stop();

#if MAGUS_TRACE
  const std::vector<TraceEvent> events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted parents-first: outer precedes inner.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[0].thread_id, events[1].thread_id);
  // Timestamp containment is what makes the viewer stack them.
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
#endif
  collector.clear();
}

TEST(Trace, ThreadsGetDistinctIds) {
#if MAGUS_TRACE
  TraceCollector& collector = TraceCollector::global();
  collector.clear();
  collector.start();
  {
    MAGUS_TRACE_SPAN("main-thread", "test");
    std::thread worker([] { MAGUS_TRACE_SPAN("worker-thread", "test"); });
    worker.join();
  }
  collector.stop();
  const std::vector<TraceEvent> events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
  collector.clear();
#endif
}

TEST(Trace, InstantEventsHavePhaseI) {
#if MAGUS_TRACE
  TraceCollector& collector = TraceCollector::global();
  collector.clear();
  collector.start();
  MAGUS_TRACE_INSTANT("tick", "test");
  collector.stop();
  const std::vector<TraceEvent> events = collector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.0);
  collector.clear();
#endif
}

TEST(Trace, ChromeJsonRoundTrips) {
  TraceCollector collector;
  collector.start();
  collector.record(TraceEvent{"span \"quoted\"\n", "cat", 'X', 1.0, 2.0, 0, 0});
  collector.record(TraceEvent{"tick", "cat", 'i', 1.5, 0.0, 1, 0});
  collector.stop();

  const std::string text = collector.to_chrome_json().dump();
  const MiniJson parsed = MiniJsonParser{text}.parse();
  EXPECT_EQ(parsed.at("displayTimeUnit").string, "ms");
  const MiniJson& events = parsed.at("traceEvents");
  ASSERT_EQ(events.array.size(), 2u);
  const MiniJson& span = events.array[0];
  // Escaped quote + newline survive the round trip.
  EXPECT_EQ(span.at("name").string, "span \"quoted\"\n");
  EXPECT_EQ(span.at("ph").string, "X");
  EXPECT_DOUBLE_EQ(span.at("ts").number, 1.0);
  EXPECT_DOUBLE_EQ(span.at("dur").number, 2.0);
  EXPECT_DOUBLE_EQ(span.at("pid").number, 1.0);
  const MiniJson& instant = events.array[1];
  EXPECT_EQ(instant.at("ph").string, "i");
  EXPECT_EQ(instant.at("s").string, "t");
}

TEST(Trace, ClearDropsBufferedEvents) {
  TraceCollector collector;
  collector.start();
  collector.record(TraceEvent{"a", "cat", 'X', 0.0, 1.0, 0, 0});
  EXPECT_EQ(collector.events().size(), 1u);
  collector.clear();
  EXPECT_TRUE(collector.events().empty());
  collector.stop();
}

TEST(Trace, CollectorBuiltWhereADestroyedOneLivedKeepsItsEvents) {
  // Two collectors built in turn in the same storage: the second must
  // record into a buffer of its own, not the first one's orphan buffer
  // cached by this thread.
  alignas(TraceCollector) unsigned char slot[sizeof(TraceCollector)];
  for (int round = 0; round < 2; ++round) {
    auto* collector = new (slot) TraceCollector();
    collector->start();
    collector->record(TraceEvent{"a", "cat", 'X', 0.0, 1.0, 0, 0});
    EXPECT_EQ(collector->events().size(), 1u) << "round " << round;
    collector->clear();
    EXPECT_TRUE(collector->events().empty()) << "round " << round;
    collector->record(TraceEvent{"b", "cat", 'X', 1.0, 1.0, 0, 0});
    EXPECT_EQ(collector->events().size(), 1u) << "round " << round;
    collector->~TraceCollector();
  }
}

}  // namespace
}  // namespace magus::obs
