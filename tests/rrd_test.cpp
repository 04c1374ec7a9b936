// Unit tests for src/rrd: round-robin archive semantics — PDP assembly,
// consolidation, heartbeat/unknown handling, counters, fetch resolution
// selection, fixed storage, the one-block layout's allocations, and binary
// persistence.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "common/rng.hpp"
#include "rrd/rrd.hpp"
#include "rrd/rrd_file.hpp"
#include "test_dir.hpp"

namespace {
/// Every `operator new` this test binary makes, so a test can count the
/// heap allocations of a window of code.
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Out of line, like the deletes below, so the compiler never pairs an
// inlined malloc() or free() with a new or delete expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ganglia::rrd {
namespace {

/// One-archive gauge database: step 10 s, heartbeat 30 s, 100 rows @1 PDP.
RrdDef simple_def(std::uint32_t pdp_per_row = 1, std::uint32_t rows = 100,
                  ConsolidationFn cf = ConsolidationFn::average) {
  RrdDef def;
  def.step_s = 10;
  DsDef ds;
  ds.heartbeat_s = 30;
  def.ds.push_back(ds);
  def.rras.push_back({cf, 0.5, pdp_per_row, rows});
  return def;
}

TEST(Rrd, CreateValidatesDefinition) {
  EXPECT_FALSE(RoundRobinDb::create(RrdDef{}, 0).ok());  // no ds/rra

  RrdDef bad_step = simple_def();
  bad_step.step_s = 0;
  EXPECT_FALSE(RoundRobinDb::create(bad_step, 0).ok());

  RrdDef bad_xff = simple_def();
  bad_xff.rras[0].xff = 1.0;
  EXPECT_FALSE(RoundRobinDb::create(bad_xff, 0).ok());

  RrdDef bad_hb = simple_def();
  bad_hb.ds[0].heartbeat_s = 0;
  EXPECT_FALSE(RoundRobinDb::create(bad_hb, 0).ok());

  // step x pdp_per_row x rows must fit int64: every time computation
  // multiplies them.
  RrdDef huge_span = simple_def(168, 100);
  huge_span.step_s = std::int64_t{1} << 56;
  EXPECT_FALSE(RoundRobinDb::create(huge_span, 0).ok());

  EXPECT_TRUE(RoundRobinDb::create(simple_def(), 1000).ok());
}

TEST(Rrd, SteadyUpdatesProduceSteadyRows) {
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  for (std::int64_t t = 1010; t <= 1200; t += 10) {
    ASSERT_TRUE(db->update(t, 5.0).ok());
  }
  auto series = db->fetch(ConsolidationFn::average, 1050, 1150);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->step, 10);
  ASSERT_GE(series->size(), 10u);
  for (double v : series->values) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(Rrd, UpdatesMustHaveIncreasingTimestamps) {
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, 1.0).ok());
  EXPECT_FALSE(db->update(1010, 2.0).ok());
  EXPECT_FALSE(db->update(900, 2.0).ok());
  EXPECT_TRUE(db->update(1011, 2.0).ok());
}

TEST(Rrd, ValueCountMustMatchDataSources) {
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  const double two[2] = {1, 2};
  EXPECT_FALSE(db->update(1010, std::span<const double>(two, 2)).ok());
}

TEST(Rrd, PdpIsTimeWeightedWithinStep) {
  // Two updates inside one 10 s step: 4 s at value 10, 6 s at value 0
  // => PDP = (10*4 + 0*6) / 10 = 4.
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1004, 10.0).ok());
  ASSERT_TRUE(db->update(1010, 0.0).ok());
  EXPECT_DOUBLE_EQ(db->last_value(), 4.0);
}

TEST(Rrd, HeartbeatLapseMakesSamplesUnknown) {
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, 1.0).ok());
  // 100 s silence (heartbeat 30 s) then a new value: the gap is unknown.
  ASSERT_TRUE(db->update(1110, 2.0).ok());
  auto series = db->fetch(ConsolidationFn::average, 1020, 1110);
  ASSERT_TRUE(series.ok());
  std::size_t unknown_count = 0;
  for (double v : series->values) {
    if (is_unknown(v)) ++unknown_count;
  }
  // All rows in the silent window are the paper's forensic "zero records".
  EXPECT_GE(unknown_count, 8u);
}

TEST(Rrd, ExplicitUnknownSampleRecorded) {
  auto db = RoundRobinDb::create(simple_def(), 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, unknown()).ok());
  EXPECT_TRUE(is_unknown(db->last_value()));
}

TEST(Rrd, MinMaxClampToUnknown) {
  RrdDef def = simple_def();
  def.ds[0].min_value = 0.0;
  def.ds[0].max_value = 100.0;
  auto db = RoundRobinDb::create(def, 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, -5.0).ok());  // below min -> unknown
  EXPECT_TRUE(is_unknown(db->last_value()));
  ASSERT_TRUE(db->update(1020, 50.0).ok());
  EXPECT_DOUBLE_EQ(db->last_value(), 50.0);
  ASSERT_TRUE(db->update(1030, 500.0).ok());  // above max -> unknown
  EXPECT_TRUE(is_unknown(db->last_value()));
}

// ----------------------------------------------------------- consolidation

TEST(Rrd, ConsolidationAverageMinMaxLast) {
  for (ConsolidationFn cf :
       {ConsolidationFn::average, ConsolidationFn::min, ConsolidationFn::max,
        ConsolidationFn::last}) {
    auto db = RoundRobinDb::create(simple_def(/*pdp_per_row=*/4, 50, cf), 1000);
    ASSERT_TRUE(db.ok());
    // PDPs: 1, 2, 3, 4 (one row).
    for (std::int64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(db->update(1000 + i * 10, static_cast<double>(i)).ok());
    }
    auto series = db->fetch(cf, 1000, 1040);
    ASSERT_TRUE(series.ok());
    ASSERT_EQ(series->size(), 1u);
    const double v = series->values[0];
    switch (cf) {
      case ConsolidationFn::average: EXPECT_DOUBLE_EQ(v, 2.5); break;
      case ConsolidationFn::min: EXPECT_DOUBLE_EQ(v, 1.0); break;
      case ConsolidationFn::max: EXPECT_DOUBLE_EQ(v, 4.0); break;
      case ConsolidationFn::last: EXPECT_DOUBLE_EQ(v, 4.0); break;
    }
  }
}

TEST(Rrd, XffControlsRowValidity) {
  // 4 PDPs per row, xff 0.5: a row with 2 unknown PDPs is still valid,
  // 3 unknown PDPs invalidates it.
  auto make = [] {
    RrdDef def = simple_def(4, 50);
    def.ds[0].heartbeat_s = 10;  // tight: any gap > 10 s is unknown
    return RoundRobinDb::create(def, 1000);
  };
  {
    // PDPs 1,2 known; 25 s silence makes PDPs 3,4 unknown: 2/4 == xff,
    // so the row is still valid.
    auto db = make();
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->update(1010, 8.0).ok());
    ASSERT_TRUE(db->update(1020, 8.0).ok());
    ASSERT_TRUE(db->update(1045, 8.0).ok());
    auto series = db->fetch(ConsolidationFn::average, 1000, 1040);
    ASSERT_TRUE(series.ok());
    EXPECT_FALSE(is_unknown(series->values.back())) << "2/4 unknown == xff";
  }
  {
    // Only PDP 1 known; 3/4 unknown exceeds xff: the row is unknown.
    auto db = make();
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->update(1010, 8.0).ok());
    ASSERT_TRUE(db->update(1045, 8.0).ok());
    auto series = db->fetch(ConsolidationFn::average, 1000, 1040);
    ASSERT_TRUE(series.ok());
    EXPECT_TRUE(is_unknown(series->values.back())) << "3/4 unknown > xff";
  }
}

// --------------------------------------------------------------- counters

TEST(Rrd, CounterStoresRate) {
  RrdDef def = simple_def();
  def.ds[0].type = DsType::counter;
  auto db = RoundRobinDb::create(def, 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, 1000.0).ok());  // first sample: no rate yet
  ASSERT_TRUE(db->update(1020, 1500.0).ok());  // +500 in 10 s = 50/s
  EXPECT_DOUBLE_EQ(db->last_value(), 50.0);
}

TEST(Rrd, CounterResetYieldsUnknownInterval) {
  RrdDef def = simple_def();
  def.ds[0].type = DsType::counter;
  auto db = RoundRobinDb::create(def, 1000);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(1010, 5000.0).ok());
  ASSERT_TRUE(db->update(1020, 100.0).ok());  // decreased: reset/wrap
  EXPECT_TRUE(is_unknown(db->last_value()));
  ASSERT_TRUE(db->update(1030, 200.0).ok());  // resumes from new base
  EXPECT_DOUBLE_EQ(db->last_value(), 10.0);
}

// ------------------------------------------------------------------ fetch

TEST(Rrd, FetchPicksFinestArchiveCoveringStart) {
  // Two archives: 10 rows @ 1 PDP (100 s) and 10 rows @ 10 PDP (1000 s).
  RrdDef def = simple_def(1, 10);
  def.rras.push_back({ConsolidationFn::average, 0.5, 10, 10});
  auto db = RoundRobinDb::create(def, 0);
  ASSERT_TRUE(db.ok());
  for (std::int64_t t = 10; t <= 1000; t += 10) {
    ASSERT_TRUE(db->update(t, static_cast<double>(t)).ok());
  }
  // Recent range: fine archive (step 10).
  auto fine = db->fetch(ConsolidationFn::average, 950, 1000);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->step, 10);
  // Old range: only the coarse archive reaches back (step 100).
  auto coarse = db->fetch(ConsolidationFn::average, 100, 1000);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse->step, 100);
}

TEST(Rrd, FetchBeyondRetentionReturnsUnknownRows) {
  auto db = RoundRobinDb::create(simple_def(1, 10), 0);  // 100 s retention
  ASSERT_TRUE(db.ok());
  for (std::int64_t t = 10; t <= 500; t += 10) {
    ASSERT_TRUE(db->update(t, 1.0).ok());
  }
  auto series = db->fetch(ConsolidationFn::average, 0, 500);
  ASSERT_TRUE(series.ok());
  // Rows older than 400 fell off the ring.
  EXPECT_TRUE(is_unknown(series->values.front()));
  EXPECT_FALSE(is_unknown(series->values.back()));
}

TEST(Rrd, FetchRejectsBadArguments) {
  auto db = RoundRobinDb::create(simple_def(), 0);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db->fetch(ConsolidationFn::min, 0, 100).ok());  // no MIN rra
  EXPECT_FALSE(db->fetch(ConsolidationFn::average, 100, 100).ok());
  EXPECT_FALSE(db->fetch(ConsolidationFn::average, 0, 100, /*ds=*/5).ok());
}

TEST(Rrd, SeriesTimestampsAlignToRowBoundaries) {
  auto db = RoundRobinDb::create(simple_def(), 0);
  ASSERT_TRUE(db.ok());
  for (std::int64_t t = 10; t <= 200; t += 10) {
    ASSERT_TRUE(db->update(t, 1.0).ok());
  }
  auto series = db->fetch(ConsolidationFn::average, 95, 125);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->start, 90);
  EXPECT_EQ(series->end, 130);
  EXPECT_EQ(series->size(), 4u);
  EXPECT_EQ(series->time_at(1), 100);
}

// -------------------------------------------------- fixed-size properties

TEST(RrdProperty, StorageNeverGrows) {
  // "The databases are highly optimized for this type of data and do not
  // grow in size over time."
  auto db = RoundRobinDb::create(RrdDef::ganglia_default(), 0);
  ASSERT_TRUE(db.ok());
  const std::size_t size_at_birth = db->storage_bytes();
  Rng rng(3);
  for (std::int64_t t = 15; t < 15 * 10000; t += 15) {
    ASSERT_TRUE(db->update(t, rng.next_range(0, 100)).ok());
  }
  EXPECT_EQ(db->storage_bytes(), size_at_birth);
  EXPECT_EQ(db->update_count(), 9999u);
}

class RrdRandomWalkProperty : public ::testing::TestWithParam<int> {};

TEST_P(RrdRandomWalkProperty, AveragesStayWithinObservedBounds) {
  // Any AVERAGE consolidation of gauge data must lie within [min,max] of
  // the injected values, at every archive resolution.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto db = RoundRobinDb::create(RrdDef::ganglia_default(), 0);
  ASSERT_TRUE(db.ok());
  double lo = 1e300, hi = -1e300;
  std::int64_t t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += 5 + static_cast<std::int64_t>(rng.next_below(20));
    const double v = rng.next_range(-50, 150);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ASSERT_TRUE(db->update(t, v).ok());
  }
  for (std::int64_t span : {600, 6000, 60000}) {
    auto series = db->fetch(ConsolidationFn::average, t - span, t);
    ASSERT_TRUE(series.ok());
    for (double v : series->values) {
      if (is_unknown(v)) continue;
      EXPECT_GE(v, lo - 1e-9);
      EXPECT_LE(v, hi + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrdRandomWalkProperty, ::testing::Range(0, 10));

TEST(RrdProperty, ConstantInputYieldsConstantAtEveryResolution) {
  auto db = RoundRobinDb::create(RrdDef::ganglia_default(), 0);
  ASSERT_TRUE(db.ok());
  std::int64_t t = 0;
  for (int i = 0; i < 40000; ++i) {
    t += 15;
    ASSERT_TRUE(db->update(t, 7.25).ok());
  }
  // Every archive (15 s to daily rows) must read exactly 7.25.
  for (std::int64_t span : {3600, 86400, 604800}) {
    auto series = db->fetch(ConsolidationFn::average, t - span, t);
    ASSERT_TRUE(series.ok());
    std::size_t known = 0;
    for (double v : series->values) {
      if (is_unknown(v)) continue;
      EXPECT_DOUBLE_EQ(v, 7.25);
      ++known;
    }
    EXPECT_GT(known, 0u) << "span " << span;
  }
}

// ------------------------------------------------------------- persistence

TEST(RrdCodec, SerializeDeserializeRoundTripsExactly) {
  Rng rng(17);
  auto db = RoundRobinDb::create(RrdDef::ganglia_default("sum", 60), 0);
  ASSERT_TRUE(db.ok());
  std::int64_t t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += 7 + static_cast<std::int64_t>(rng.next_below(10));
    ASSERT_TRUE(db->update(t, rng.next_range(0, 10)).ok());
  }

  const std::string image = RrdCodec::serialize(*db);
  auto restored = RrdCodec::deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();

  // Identical reads...
  auto a = db->fetch(ConsolidationFn::average, t - 3000, t);
  auto b = restored->fetch(ConsolidationFn::average, t - 3000, t);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->values.size(), b->values.size());
  for (std::size_t i = 0; i < a->values.size(); ++i) {
    if (is_unknown(a->values[i])) {
      EXPECT_TRUE(is_unknown(b->values[i]));
    } else {
      EXPECT_DOUBLE_EQ(a->values[i], b->values[i]);
    }
  }
  // ...and identical continued behaviour (in-progress PDP preserved).
  ASSERT_TRUE(db->update(t + 5, 3.0).ok());
  ASSERT_TRUE(restored->update(t + 5, 3.0).ok());
  EXPECT_EQ(RrdCodec::serialize(*db), RrdCodec::serialize(*restored));
}

TEST(RrdCodec, CounterDsDefRoundTripsThroughCodec) {
  // A counter data source carries state the gauge path never touches
  // (last_raw, the rate conversion, min/max clamping): all of it must
  // survive serialisation so restored counters keep deriving rates.
  RrdDef def;
  def.step_s = 10;
  DsDef ds;
  ds.name = "bytes_in";
  ds.type = DsType::counter;
  ds.heartbeat_s = 40;
  ds.min_value = 0.0;
  ds.max_value = 1e9;
  def.ds.push_back(std::move(ds));
  def.rras = {{ConsolidationFn::average, 0.5, 1, 32}};
  auto db = RoundRobinDb::create(def, 0);
  ASSERT_TRUE(db.ok());
  // Counter at a steady 50 units/second.
  std::int64_t t = 0;
  double counter = 1000;
  for (int i = 0; i < 20; ++i) {
    t += 10;
    counter += 500;
    ASSERT_TRUE(db->update(t, counter).ok());
  }

  auto restored = RrdCodec::deserialize(RrdCodec::serialize(*db));
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  const DsDef& back = restored->definition().ds[0];
  EXPECT_EQ(back.name, "bytes_in");
  EXPECT_EQ(back.type, DsType::counter);
  EXPECT_EQ(back.heartbeat_s, 40);
  EXPECT_DOUBLE_EQ(back.min_value, 0.0);
  EXPECT_DOUBLE_EQ(back.max_value, 1e9);

  // The restored counter continues from the saved last_raw: the next
  // delta must come out as the same 50/s rate, not a bogus first-sample.
  t += 10;
  counter += 500;
  ASSERT_TRUE(restored->update(t, counter).ok());
  ASSERT_TRUE(db->update(t, counter).ok());
  auto a = db->fetch(ConsolidationFn::average, t - 100, t);
  auto b = restored->fetch(ConsolidationFn::average, t - 100, t);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->values.size(), b->values.size());
  bool saw_rate = false;
  for (std::size_t i = 0; i < a->values.size(); ++i) {
    if (is_unknown(a->values[i])) {
      EXPECT_TRUE(is_unknown(b->values[i]));
      continue;
    }
    EXPECT_DOUBLE_EQ(a->values[i], b->values[i]);
    EXPECT_DOUBLE_EQ(b->values[i], 50.0);
    saw_rate = true;
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_EQ(RrdCodec::serialize(*db), RrdCodec::serialize(*restored));
}

TEST(RrdCodec, RejectsCorruptImages) {
  auto db = RoundRobinDb::create(simple_def(), 0);
  ASSERT_TRUE(db.ok());
  std::string image = RrdCodec::serialize(*db);

  EXPECT_FALSE(RrdCodec::deserialize("").ok());
  EXPECT_FALSE(RrdCodec::deserialize("JUNKJUNK").ok());
  EXPECT_FALSE(RrdCodec::deserialize(image.substr(0, image.size() / 2)).ok());
  std::string trailing = image + "x";
  EXPECT_FALSE(RrdCodec::deserialize(trailing).ok());
}

TEST(RrdCodec, RejectsImageTooShortForItsRings) {
  auto db = RoundRobinDb::create(simple_def(), 0);
  ASSERT_TRUE(db.ok());
  std::string image = RrdCodec::serialize(*db);
  // The archive's `rows` field: magic, step, ds count, the one ds (name,
  // type, heartbeat, min, max), rra count, then cf, xff, pdp_per_row.
  const std::size_t ds_bytes =
      4 + simple_def().ds[0].name.size() + 1 + 8 + 8 + 8;
  const std::size_t rows_at = 8 + 8 + 4 + ds_bytes + 4 + 1 + 8 + 4;
  std::uint32_t rows = 0;
  std::memcpy(&rows, image.data() + rows_at, sizeof rows);
  ASSERT_EQ(rows, 100u);
  // A corrupt row count claims ~32 GiB of ring the image does not hold; it
  // must be refused before anything that size is allocated.
  rows = 0xffffffffu;
  std::memcpy(image.data() + rows_at, &rows, sizeof rows);
  EXPECT_FALSE(RrdCodec::deserialize(image).ok());
}

TEST(RrdCodec, FileSaveLoad) {
  auto db = RoundRobinDb::create(simple_def(), 0);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->update(10, 4.0).ok());
  const ganglia::testing::TestDir dir;
  const std::string path = (dir.path() / "ganglia_rrd_test.grrd").string();
  ASSERT_TRUE(RrdCodec::save_file(*db, path).ok());
  auto loaded = RrdCodec::load_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_DOUBLE_EQ(loaded->last_value(), db->last_value());
  EXPECT_FALSE(RrdCodec::load_file("/nonexistent/x.grrd").ok());
}

/// The archiver's summary shape: "sum" and "num" over the default ladder.
RrdDef sum_num_def() {
  RrdDef def = RrdDef::ganglia_default("sum", 120);
  DsDef num = def.ds.front();
  num.name = "num";
  def.ds.push_back(std::move(num));
  return def;
}

TEST(RrdLayout, CreateTakesAtMostTwoAllocationsAndUpdateNone) {
  for (const RrdDef& shape : {RrdDef::ganglia_default(), sum_num_def()}) {
    const auto def = std::make_shared<const RrdDef>(shape);
    const std::size_t n = def->ds.size();
    const std::size_t before = g_allocations.load();
    auto db = RoundRobinDb::create(def, 0);
    const std::size_t created = g_allocations.load() - before;
    ASSERT_TRUE(db.ok());
    EXPECT_LE(created, 2u) << n << " ds";
    EXPECT_EQ(&db->definition(), def.get()) << "the definition is shared";
    EXPECT_EQ(db->storage_bytes(), (4 * 244 + 374) * n * sizeof(double));

    const std::size_t before_updates = g_allocations.load();
    bool all_ok = true;
    for (int i = 1; i <= 400; ++i) {
      const double values[2] = {0.5 * i, 2.0};
      all_ok &= db->update(i * 15, std::span<const double>(values, n)).ok();
    }
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(g_allocations.load() - before_updates, 0u)
        << "update() never touches the heap";
  }
}

/// FNV-1a over an image: a fixed digest to pin its bytes against.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A fixed update sequence over `def` from t=1000: irregular intervals
/// (partial PDPs), an unknown sample every 23 updates, a silence past the
/// 120 s heartbeat, and about 420 PDPs, so the 244-row finest ring wraps.
std::string pinned_image(RrdDef def) {
  const std::size_t n = def.ds.size();
  auto db = RoundRobinDb::create(std::move(def), 1000);
  EXPECT_TRUE(db.ok());
  if (!db.ok()) return {};
  const bool counter = db->definition().ds[0].type == DsType::counter;
  std::int64_t t = 1000;
  double raw = 5000;
  for (int i = 0; i < 400; ++i) {
    t += (i % 5 == 0) ? 22 : 15;
    if (i >= 100 && i < 112) continue;  // silence past the heartbeat
    raw += 15.0 * (10 + i % 7);
    double values[2];
    values[0] = (i % 23 == 5) ? unknown() : counter ? raw : 0.25 * (i % 17);
    values[1] = 1.0 + i % 3;
    EXPECT_TRUE(db->update(t, std::span<const double>(values, n)).ok());
  }
  return RrdCodec::serialize(*db);
}

TEST(RrdCodec, ImageBytesArePinned) {
  // The in-memory layout is free to change; GRRD0001 images are not.  The
  // digests were recorded from this sequence when every ring was a vector
  // of its own and every database copied its definition.
  RrdDef counter = RrdDef::ganglia_default("bytes_in", 120);
  counter.ds[0].type = DsType::counter;
  counter.ds[0].min_value = 0.0;
  const struct {
    const char* what;
    RrdDef def;
    std::size_t size;
    std::uint64_t digest;
  } cases[] = {
      {"1-ds gauge", RrdDef::ganglia_default("sum", 120), 11137,
       0x8513c857e050e125ULL},
      {"1-ds counter", counter, 11142, 0xe80577cef11f5e06ULL},
      {"2-ds sum+num", sum_num_def(), 22061, 0x90ac398a95db6364ULL},
  };
  for (const auto& c : cases) {
    const std::string image = pinned_image(c.def);
    EXPECT_EQ(image.size(), c.size) << c.what;
    EXPECT_EQ(fnv1a(image), c.digest) << c.what;
  }
}

TEST(RrdCodec, RestoredImagesAdoptAMatchingSharedDefinition) {
  const auto metric = std::make_shared<const RrdDef>(RrdDef::ganglia_default());
  const auto summary = std::make_shared<const RrdDef>(sum_num_def());
  const std::shared_ptr<const RrdDef> shapes[] = {metric, summary};
  for (const auto& shape : shapes) {
    auto db = RoundRobinDb::create(shape, 0);
    ASSERT_TRUE(db.ok());
    const double values[2] = {1.5, 3.0};
    const std::size_t n = shape->ds.size();
    ASSERT_TRUE(db->update(20, std::span<const double>(values, n)).ok());
    const std::string image = RrdCodec::serialize(*db);

    // The unbounded (NaN) min/max of the default columns still match.
    auto restored = RrdCodec::deserialize(image, shapes);
    ASSERT_TRUE(restored.ok()) << restored.error().to_string();
    EXPECT_EQ(&restored->definition(), shape.get());
    EXPECT_EQ(RrdCodec::serialize(*restored), image);

    // Without a matching shape the image gets a definition of its own.
    auto alone = RrdCodec::deserialize(image);
    ASSERT_TRUE(alone.ok());
    EXPECT_NE(&alone->definition(), shape.get());
    EXPECT_EQ(alone->definition(), *shape);
    EXPECT_EQ(RrdCodec::serialize(*alone), image);
  }
}

TEST(Rrd, GangliaDefaultCoversAYear) {
  const RrdDef def = RrdDef::ganglia_default();
  std::int64_t max_span = 0;
  for (const RraDef& rra : def.rras) {
    max_span = std::max(max_span, def.step_s * rra.pdp_per_row * rra.rows);
  }
  EXPECT_GE(max_span, 365LL * 86400);  // a year of history, fixed size
  EXPECT_LE(max_span, 2 * 365LL * 86400);
}

}  // namespace
}  // namespace ganglia::rrd
