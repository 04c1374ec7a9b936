// Unit tests for src/common: strings, result, uri, rng, clocks, cpu timer.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/clock.hpp"
#include "common/cpu_timer.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"

namespace ganglia {
namespace {

// ----------------------------------------------------------------- strings

TEST(Strings, TrimRemovesAsciiWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\n x \v\f"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("inner  space"), "inner  space");
}

TEST(Strings, SplitPreservesEmptyFieldsByDefault) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSkipEmptyDropsEmptyFields) {
  const auto parts = split(",,a,,b,,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, SplitOfEmptyStringYieldsOneEmptyField) {
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_TRUE(split("", ',', true).empty());
}

TEST(Strings, SplitWsHandlesRunsAndEdges) {
  const auto parts = split_ws("  one \t two\nthree ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("GANGLIA_XML", "GANGLIA"));
  EXPECT_FALSE(starts_with("GANG", "GANGLIA"));
  EXPECT_TRUE(ends_with("report.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", "report.xml"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Strings, IequalsAsciiOnly) {
  EXPECT_TRUE(iequals("Cluster", "cLUSTER"));
  EXPECT_FALSE(iequals("cluster", "clusters"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, ParseI64AcceptsExactIntegersOnly) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64("  13  "), 13);
  EXPECT_FALSE(parse_i64("12abc").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_FALSE(parse_i64("1.5").has_value());
  EXPECT_FALSE(parse_i64("99999999999999999999").has_value());  // overflow
}

TEST(Strings, ParseU64RejectsNegatives) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_FALSE(parse_u64("-1").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-0.5e2").value(), -50.0);
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e-300, 1.23456789012345e17,
                   16.779999999999998}) {
    const std::string s = format_double(v);
    EXPECT_EQ(parse_double(s).value(), v) << s;
  }
}

TEST(Strings, StrprintfFormats) {
  EXPECT_EQ(strprintf("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strprintf("empty%s", ""), "empty");
}

// ------------------------------------------------------------------ result

TEST(Result, ValueAndErrorPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.code(), Errc::ok);

  Result<int> bad(Err(Errc::timeout, "slow"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::timeout);
  EXPECT_EQ(bad.error().to_string(), "timeout: slow");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "ok");
  Status e = Err(Errc::refused, "no");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.code(), Errc::refused);
}

TEST(Result, ErrcNamesAreStable) {
  EXPECT_STREQ(errc_name(Errc::parse_error), "parse_error");
  EXPECT_STREQ(errc_name(Errc::exhausted), "exhausted");
  EXPECT_STREQ(errc_name(Errc::closed), "closed");
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken.size(), 1000u);
}

// -------------------------------------------------------------------- uri

TEST(Uri, ParsesFullForm) {
  const auto uri = parse_uri("gmetad://sdsc.example:8651/path/x");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->scheme, "gmetad");
  EXPECT_EQ(uri->host, "sdsc.example");
  EXPECT_EQ(uri->port, 8651);
  EXPECT_EQ(uri->path, "/path/x");
}

TEST(Uri, DefaultsPortAndPath) {
  const auto uri = parse_uri("http://ganglia.sourceforge.net");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->port, 0);
  EXPECT_EQ(uri->path, "/");
  EXPECT_EQ(uri->to_string(), "http://ganglia.sourceforge.net/");
}

TEST(Uri, RoundTripsThroughToString) {
  for (const char* text :
       {"gmetad://host:1/", "http://a.b.c:65535/x/y", "x://h/"}) {
    const auto uri = parse_uri(text);
    ASSERT_TRUE(uri.has_value()) << text;
    EXPECT_EQ(uri->to_string(), text);
  }
}

TEST(Uri, RejectsMalformedInput) {
  EXPECT_FALSE(parse_uri("no-scheme").has_value());
  EXPECT_FALSE(parse_uri("://host").has_value());
  EXPECT_FALSE(parse_uri("s://").has_value());
  EXPECT_FALSE(parse_uri("s://host:0/").has_value());
  EXPECT_FALSE(parse_uri("s://host:99999/").has_value());
  EXPECT_FALSE(parse_uri("s://host:abc/").has_value());
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  double min = 1, max = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  // Reasonable spread across the interval.
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Rng, NextRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_range(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, SplitMixStreamsAreDistinct) {
  SplitMix64 sm(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(sm.next());
  EXPECT_EQ(seen.size(), 100u);
}

// ------------------------------------------------------------------ clocks

TEST(Clock, WallClockAdvances) {
  WallClock clock;
  const TimeUs a = clock.now_us();
  clock.sleep_us(2000);
  const TimeUs b = clock.now_us();
  EXPECT_GE(b - a, 1500);
}

TEST(Clock, ConversionHelpers) {
  EXPECT_EQ(seconds_to_us(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(us_to_seconds(250'000), 0.25);
}

// --------------------------------------------------------------- cpu timer

TEST(CpuTimer, MetersBusyWork) {
  CpuMeter meter;
  {
    ScopedCpuMeter scoped(meter);
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + static_cast<double>(i);
  }
  EXPECT_GT(meter.total_ns(), 0);
}

TEST(CpuTimer, DoesNotChargeOtherThreads) {
  CpuMeter meter;
  {
    ScopedCpuMeter scoped(meter);
    // Sleeping burns wall time, not CPU time.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_LT(meter.total_seconds(), 0.02);
}

TEST(CpuTimer, StartStopAccumulates) {
  CpuMeter meter;
  meter.start();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  meter.stop();
  const auto first = meter.total_ns();
  meter.start();
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  meter.stop();
  EXPECT_GT(meter.total_ns(), first);
  meter.reset();
  EXPECT_EQ(meter.total_ns(), 0);
}

}  // namespace
}  // namespace ganglia
