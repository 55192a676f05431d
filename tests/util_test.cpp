#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "util/args.h"
#include "util/backoff.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace magus::util {
namespace {

TEST(Units, DbLinearRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 46.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-12);
  }
}

TEST(Units, KnownConversions) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(3.0), 1.9953, 1e-3);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(30.0), 1000.0, 1e-9);
  EXPECT_NEAR(watts_to_dbm(1.0), 30.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(46.0), 39.81, 0.01);
}

TEST(Units, SumPowersDbm) {
  // Two equal powers add 3.01 dB.
  const double values[] = {10.0, 10.0};
  EXPECT_NEAR(sum_powers_dbm(values), 13.0103, 1e-3);
  EXPECT_TRUE(std::isinf(sum_powers_dbm({})));
  EXPECT_LT(sum_powers_dbm({}), 0.0);
}

TEST(Units, NearDb) {
  EXPECT_TRUE(near_db(10.0, 10.05, 0.1));
  EXPECT_FALSE(near_db(10.0, 10.2, 0.1));
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_TRUE(near_db(ninf, ninf, 0.1));
  EXPECT_FALSE(near_db(ninf, 0.0, 1000.0));
}

TEST(Rng, SplitMixDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);  // advances equally
}

TEST(Rng, HashCoordsIsPure) {
  EXPECT_EQ(hash_coords(1, 2, 3), hash_coords(1, 2, 3));
  EXPECT_NE(hash_coords(1, 2, 3), hash_coords(1, 3, 2));
  EXPECT_NE(hash_coords(1, 2, 3), hash_coords(2, 2, 3));
}

TEST(Rng, UnitDoubleRange) {
  std::uint64_t state = 7;
  for (int i = 0; i < 1000; ++i) {
    const double u = hash_to_unit_double(splitmix64(state));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, XoshiroReproducible) {
  Xoshiro256ss a{123};
  Xoshiro256ss b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Xoshiro256ss c{124};
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformIntBounds) {
  Xoshiro256ss rng{5};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Xoshiro256ss rng{9};
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Xoshiro256ss rng{11};
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.add(rng.poisson(3.5));
    large.add(rng.poisson(200.0));  // normal-approximation branch
  }
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(large.mean(), 200.0, 2.0);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Xoshiro256ss a{1};
  Xoshiro256ss b{1};
  auto fa = a.fork(7);
  auto fb = b.fork(7);
  EXPECT_EQ(fa(), fb());
  auto fc = a.fork(8);
  EXPECT_NE(fa(), fc());
}

TEST(Stats, RunningStatsBasics) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.sum(), 40.0);
}

TEST(Stats, Percentile) {
  const double values[] = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.25), 2.0);
  const double one[] = {7.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.9), 7.0);
}

TEST(Stats, EmpiricalCdf) {
  const double values[] = {3.0, 1.0, 2.0};
  const auto cdf = empirical_cdf(values);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, FractionAtLeast) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fraction_at_least(values, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_least(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_at_least({}, 1.0), 0.0);
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "/magus_csv_test.csv";
  {
    CsvWriter csv{path};
    csv.write_row({"a", "b,c", "d\"e", "f\ng"});
    csv.write_row({CsvWriter::cell(1.5), CsvWriter::cell(2LL)});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,\"b,c\",\"d\"\"e\",\"f\ng\"\n1.5,2\n");
  std::remove(path.c_str());
}

TEST(Table, FormatsAlignedOutput) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", TablePrinter::percent(0.565)});
  table.add_row({"b", TablePrinter::num(1.234, 1)});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("56.5%"), std::string::npos);
  EXPECT_NE(text.find("1.2"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST(Args, ParsesFlagsAndDefaults) {
  ArgParser parser{"test"};
  parser.add_flag("count", "5", "a count");
  parser.add_flag("name", "x", "a name");
  parser.add_flag("verbose", "false", "a switch");
  const char* argv[] = {"prog", "--count", "7", "--name=yy", "--verbose"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("count"), 7);
  EXPECT_EQ(parser.get_string("name"), "yy");
  EXPECT_TRUE(parser.get_bool("verbose"));
}

TEST(Args, RejectsUnknownFlag) {
  ArgParser parser{"test"};
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(parser.parse(3, argv), std::runtime_error);
}

TEST(Args, HelpReturnsFalse) {
  ArgParser parser{"test"};
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(Args, ThreadsFlagDefaultsToHardwareConcurrency) {
  ArgParser parser{"test"};
  add_threads_flag(parser);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_GE(threads_from(parser), 1u);  // 0 resolves to the host's cores
}

TEST(Args, ThreadsFlagExplicitValue) {
  ArgParser parser{"test"};
  add_threads_flag(parser);
  const char* argv[] = {"prog", "--threads", "3"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(threads_from(parser), 3u);
}

TEST(Json, OrderedKeysAndScalarTypes) {
  JsonObject object;
  object.set("name", "fig12").set("threads", std::int64_t{8});
  object.set("speedup", 3.25).set("identical", true);
  EXPECT_EQ(object.dump(),
            "{\n"
            "  \"name\": \"fig12\",\n"
            "  \"threads\": 8,\n"
            "  \"speedup\": 3.25,\n"
            "  \"identical\": true\n"
            "}\n");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonObject object;
  object.set("nan", std::nan(""));
  object.set("inf", std::numeric_limits<double>::infinity());
  const std::string text = object.dump();
  EXPECT_NE(text.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(text.find("\"inf\": null"), std::string::npos);
}

TEST(Json, EscapesStringsAndNestsObjects) {
  JsonObject inner;
  inner.set("label", "a \"quoted\"\nline");
  JsonObject outer;
  outer.set("inner", std::move(inner));
  const std::string text = outer.dump();
  EXPECT_NE(text.find("\\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(text.find("\"inner\": {"), std::string::npos);
}

TEST(Json, ArraysHoldMixedValuesAndNest) {
  JsonArray inner;
  inner.push_back(std::int64_t{1}).push_back(2.5).push_back(true);
  inner.push_back("text");
  JsonObject element;
  element.set("k", std::int64_t{9});
  JsonArray outer;
  outer.push_back(std::move(inner));
  outer.push_back(std::move(element));
  EXPECT_EQ(outer.size(), 2u);
  EXPECT_FALSE(outer.empty());
  EXPECT_EQ(outer.dump(),
            "[\n"
            "  [\n"
            "    1,\n"
            "    2.5,\n"
            "    true,\n"
            "    \"text\"\n"
            "  ],\n"
            "  {\n"
            "    \"k\": 9\n"
            "  }\n"
            "]\n");

  JsonObject object;
  JsonArray values;
  values.push_back(std::int64_t{3});
  object.set("values", std::move(values));
  object.set("empty", JsonArray{});
  const std::string text = object.dump();
  EXPECT_NE(text.find("\"values\": [\n    3\n  ]"), std::string::npos);
  EXPECT_NE(text.find("\"empty\": []"), std::string::npos);
}

TEST(Json, ControlCharactersEscapeAsUnicode) {
  JsonObject object;
  object.set("ctl", std::string("a\x01" "b\x1f" "\t\r\b\f"));
  const std::string text = object.dump();
  EXPECT_NE(text.find("a\\u0001b\\u001f\\t\\r\\u0008\\u000c"),
            std::string::npos);
  // Bytes above 0x7f are passed through untouched (UTF-8 payloads), never
  // sign-extended into bogus \uffXX escapes.
  JsonObject utf8;
  utf8.set("s", "caf\xc3\xa9");
  EXPECT_NE(utf8.dump().find("caf\xc3\xa9"), std::string::npos);
  EXPECT_EQ(utf8.dump().find("\\uff"), std::string::npos);
}

TEST(Json, WriteFileRoundTripAndFailure) {
  JsonObject object;
  object.set("value", std::int64_t{42});
  const std::string path = "util_json_test.json";
  object.write_file(path);
  std::ifstream in{path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), object.dump());
  std::remove(path.c_str());
  EXPECT_THROW(object.write_file("no_such_dir/x.json"), std::runtime_error);
}

TEST(Backoff, DeterministicScheduleGrowsToCap) {
  BackoffPolicy policy;
  policy.initial_delay_s = 0.5;
  policy.multiplier = 2.0;
  policy.max_delay_s = 1.5;
  policy.max_attempts = 4;
  EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(2), 1.0);
  EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(3), 1.5);  // capped
  EXPECT_THROW((void)policy.delay_before_attempt_s(-1), std::invalid_argument);
  EXPECT_FALSE(policy.exhausted(3));
  EXPECT_TRUE(policy.exhausted(4));
  EXPECT_DOUBLE_EQ(policy.worst_case_total_delay_s(), 3.0);
}

TEST(Backoff, ZeroJitterIsBitIdenticalAndConsumesNothing) {
  BackoffPolicy policy;  // jitter_fraction defaults to 0
  Xoshiro256ss rng{123};
  const auto before = rng.state();
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(policy.delay_before_attempt_s(attempt, rng),
              policy.delay_before_attempt_s(attempt));
  }
  // The stream was never touched: legacy traces stay bit-identical.
  EXPECT_EQ(rng.state(), before);
}

TEST(Backoff, SeededJitterIsBandedAndReproducible) {
  BackoffPolicy policy;
  policy.jitter_fraction = 0.5;
  Xoshiro256ss rng_a{7};
  Xoshiro256ss rng_b{7};
  bool saw_jitter = false;
  for (int attempt = 1; attempt < 8; ++attempt) {
    const double base = policy.delay_before_attempt_s(attempt);
    const double jittered = policy.delay_before_attempt_s(attempt, rng_a);
    EXPECT_GE(jittered, base * 0.75);
    EXPECT_LE(jittered, base * 1.25);
    if (jittered != base) saw_jitter = true;
    // Same seed, same schedule.
    EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(attempt, rng_b), jittered);
  }
  EXPECT_TRUE(saw_jitter);
  // Attempt 0 stays immediate and consumes nothing even with jitter armed.
  const auto state = rng_a.state();
  EXPECT_DOUBLE_EQ(policy.delay_before_attempt_s(0, rng_a), 0.0);
  EXPECT_EQ(rng_a.state(), state);
}

TEST(Backoff, JitterInflatesWorstCaseAndValidatesRange) {
  BackoffPolicy plain;
  BackoffPolicy jittered = plain;
  jittered.jitter_fraction = 0.5;
  EXPECT_DOUBLE_EQ(jittered.worst_case_total_delay_s(),
                   plain.worst_case_total_delay_s() * 1.25);
  BackoffPolicy bad;
  bad.jitter_fraction = 1.5;
  Xoshiro256ss rng{1};
  EXPECT_THROW((void)bad.delay_before_attempt_s(1, rng),
               std::invalid_argument);
}

// hash64's value is part of the path-loss file format (the coverage-index
// section checksum). The unseeded vectors are XXH64's published ones; the
// seeded and bulk ones pin the chaining path and the 32-byte stripes.
TEST(Hash64, KnownAnswerVectors) {
  const auto h = [](const char* text) {
    return hash64(text, std::strlen(text));
  };
  EXPECT_EQ(h(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(h("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(h("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(h("message digest"), 0x066ED728FCEEB3BEULL);
  EXPECT_EQ(h("abcdefghijklmnopqrstuvwxyz"), 0xCFE1F278FA89835CULL);
  EXPECT_EQ(h("1234567890123456789012345678901234567890"
              "1234567890123456789012345678901234567890"),
            0xE04A477F19EE145DULL);
  EXPECT_EQ(hash64("abc", 3, 0x9E3779B97F4A7C15ULL), 0x2ED0F59D6B43AC8BULL);
  std::vector<unsigned char> bulk(4096);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  EXPECT_EQ(hash64(bulk.data(), bulk.size()), 0xE21174BE82DC78D9ULL);
  EXPECT_EQ(hash64(bulk.data(), 4093, 42), 0x48518CD28BE42CB7ULL);
}

TEST(Hash64, EveryTailLengthIsDistinctAndAlignmentFree) {
  // Lengths 0..64 cover the no-stripe path, one and two stripes, and every
  // 8/4/1-byte tail. Each length hashes to its own value, at any alignment.
  std::vector<unsigned char> source(64 + 8);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<unsigned char>(i * 131 + 17);
  }
  std::set<std::uint64_t> seen;
  for (std::size_t length = 0; length <= 64; ++length) {
    const std::uint64_t aligned = hash64(source.data(), length);
    EXPECT_TRUE(seen.insert(aligned).second) << "length " << length;
    for (std::size_t shift = 1; shift < 8; ++shift) {
      std::vector<unsigned char> moved(length + shift);
      std::memcpy(moved.data() + shift, source.data(), length);
      EXPECT_EQ(hash64(moved.data() + shift, length), aligned)
          << "length " << length << " shift " << shift;
    }
  }
}

TEST(Hash64, EverySingleBitFlipOfA4KiBBufferChangesIt) {
  std::vector<unsigned char> buffer(4096);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 7 + 3);
  }
  const std::uint64_t pristine = hash64(buffer.data(), buffer.size());
  int unchanged = 0;
  for (std::size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    buffer[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    unchanged += hash64(buffer.data(), buffer.size()) == pristine ? 1 : 0;
    buffer[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(unchanged, 0);
}

}  // namespace
}  // namespace magus::util
