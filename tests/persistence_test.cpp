// Tests for archiver persistence: flush/load round trips, restart
// continuity through a Gmetad daemon cycle, and failure handling.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gmetad/archiver.hpp"
#include "gmetad/gmetad.hpp"
#include "rrd/rrd_file.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"
#include "test_dir.hpp"

namespace ganglia::gmetad {
namespace {

std::string fresh_dir(const char* tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (std::string("ganglia_persist_") + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

Cluster tiny_cluster(double load) {
  Cluster c;
  c.name = "c";
  Host h;
  h.name = "h0";
  h.tn = 1;
  Metric m;
  m.name = "load_one";
  m.set_double(load);
  h.metrics.push_back(std::move(m));
  c.hosts.emplace("h0", std::move(h));
  return c;
}

TEST(Persistence, FlushAndLoadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  ArchiverOptions options{15, 120, dir};

  {
    Archiver archiver(options);
    for (int round = 0; round < 20; ++round) {
      archiver.record_cluster("src", tiny_cluster(2.5), 1000 + round * 15);
    }
    ASSERT_TRUE(archiver.flush_to_disk().ok());
  }

  Archiver restored(options);
  ASSERT_TRUE(restored.load_from_disk().ok());
  EXPECT_EQ(restored.database_count(), 1u);
  auto series =
      restored.fetch_host_metric("src", "c", "h0", "load_one", 1100, 1300);
  ASSERT_TRUE(series.ok()) << series.error().to_string();
  bool known = false;
  for (double v : series->values) {
    if (!rrd::is_unknown(v)) {
      EXPECT_DOUBLE_EQ(v, 2.5);
      known = true;
    }
  }
  EXPECT_TRUE(known);

  // Restored databases continue accepting updates where they left off.
  restored.record_cluster("src", tiny_cluster(3.5), 1000 + 20 * 15);
  EXPECT_EQ(restored.rrd_updates(), 1u);
}

TEST(Persistence, KeysWithSlashesAndSpacesSurvive) {
  const std::string dir = fresh_dir("keys");
  ArchiverOptions options{15, 120, dir};
  Archiver archiver(options);
  SummaryInfo summary;
  summary.hosts_up = 1;
  summary.metrics["weird metric/name"] = {1.0, 1, MetricType::float_t, ""};
  archiver.record_summary("grid with spaces/cluster", summary, 1000);
  ASSERT_TRUE(archiver.flush_to_disk().ok());

  Archiver restored(options);
  ASSERT_TRUE(restored.load_from_disk().ok());
  EXPECT_EQ(restored.database_count(), 1u);
  EXPECT_TRUE(restored
                  .fetch_summary_metric("grid with spaces/cluster",
                                        "weird metric/name", 900, 1200)
                  .ok());
}

/// The archive directory in tests/data/archive_dir was written by the
/// archiver when each ring was a vector of its own and every database
/// copied its definition: 30 rounds at 15 s from t=1000 of this host
/// metric and this grid summary.
void record_fixture_round(Archiver& archiver, int round) {
  const std::int64_t now = 1000 + round * 15;
  archiver.record_cluster("src", tiny_cluster(0.5 * (round % 7)), now);
  SummaryInfo summary;
  summary.hosts_up = 4;
  summary.metrics["load_one"] = {1.5 * (round % 5), 4, MetricType::float_t,
                                 ""};
  archiver.record_summary("grid", summary, now);
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Persistence, ArchiveDirectoryOfTheVectorLayoutRestores) {
  const ganglia::testing::TestDir dir;
  const std::filesystem::path fixture =
      std::filesystem::path(GANGLIA_TEST_DATA_DIR) / "archive_dir";
  std::filesystem::copy(fixture, dir.path());
  Archiver restored({15, 120, dir.path().string()});
  ASSERT_TRUE(restored.load_from_disk().ok());
  ASSERT_EQ(restored.database_count(), 2u);
  // Both images adopted the archiver's own shapes (metric; sum+num).
  EXPECT_EQ(restored.definition_count(), 2u);

  // Flushed back, every image is the bytes it was restored from.
  ASSERT_TRUE(restored.flush_to_disk().ok());
  for (const auto& entry : std::filesystem::directory_iterator(fixture)) {
    EXPECT_EQ(read_bytes(dir.path() / entry.path().filename()),
              read_bytes(entry.path()))
        << entry.path().filename();
  }

  // The restored history is what this layout records from the same rounds.
  Archiver replayed({15, 120, ""});
  for (int round = 0; round < 30; ++round) {
    record_fixture_round(replayed, round);
  }
  const auto host = [](const Archiver& a) {
    return a.fetch_host_metric("src", "c", "h0", "load_one", 900, 1500);
  };
  const auto sums = [](const Archiver& a, std::size_t ds) {
    return a.fetch_summary_metric("grid", "load_one", 900, 1500, ds);
  };
  for (const auto& [got, want] :
       {std::pair{host(restored), host(replayed)},
        std::pair{sums(restored, 0), sums(replayed, 0)},
        std::pair{sums(restored, 1), sums(replayed, 1)}}) {
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->values.size(), want->values.size());
    std::size_t known = 0;
    for (std::size_t i = 0; i < got->values.size(); ++i) {
      if (rrd::is_unknown(want->values[i])) {
        EXPECT_TRUE(rrd::is_unknown(got->values[i])) << i;
        continue;
      }
      ++known;
      EXPECT_EQ(got->values[i], want->values[i]) << i;
    }
    EXPECT_GT(known, 20u);
  }

  // New archives of both shapes share the same two definitions.
  record_fixture_round(restored, 30);
  restored.record_cluster("src2", tiny_cluster(1.0), 1450);
  EXPECT_EQ(restored.database_count(), 3u);
  EXPECT_EQ(restored.definition_count(), 2u);
}

TEST(Persistence, ColdStartIsNotAnError) {
  Archiver archiver({15, 120, fresh_dir("cold")});
  EXPECT_TRUE(archiver.load_from_disk().ok());
  EXPECT_EQ(archiver.database_count(), 0u);
}

TEST(Persistence, UnconfiguredDirIsRejected) {
  Archiver archiver({15, 120, ""});
  EXPECT_EQ(archiver.flush_to_disk().code(), Errc::invalid_argument);
  EXPECT_EQ(archiver.load_from_disk().code(), Errc::invalid_argument);
}

Cluster two_metric_cluster(double load) {
  Cluster c = tiny_cluster(load);
  Metric m;
  m.name = "cpu_user";
  m.set_double(7.0);
  c.hosts.begin()->second.metrics.push_back(std::move(m));
  return c;
}

TEST(Persistence, CorruptImageSkipsOnlyThatArchive) {
  const std::string dir = fresh_dir("corrupt");
  ArchiverOptions options{15, 120, dir};
  {
    Archiver archiver(options);
    archiver.record_cluster("src", two_metric_cluster(1.0), 1000);
    ASSERT_TRUE(archiver.flush_to_disk().ok());
  }
  // Truncate one image behind the manifest's back (a torn write).
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find("load_one") !=
        std::string::npos) {
      std::ofstream(entry.path(), std::ios::trunc) << "junk";
    }
  }
  // Restore is tolerant: the torn archive is skipped, the rest load.
  Archiver restored(options);
  ASSERT_TRUE(restored.load_from_disk().ok());
  EXPECT_EQ(restored.database_count(), 1u);
  EXPECT_TRUE(
      restored.fetch_host_metric("src", "c", "h0", "cpu_user", 900, 1200)
          .ok());
  EXPECT_EQ(
      restored.fetch_host_metric("src", "c", "h0", "load_one", 900, 1200)
          .code(),
      Errc::not_found);
}

TEST(Persistence, ManifestPathTraversalRejected) {
  const std::string dir = fresh_dir("traversal");
  ArchiverOptions options{15, 120, dir};
  {
    Archiver archiver(options);
    archiver.record_cluster("src", tiny_cluster(1.0), 1000);
    ASSERT_TRUE(archiver.flush_to_disk().ok());
  }
  // A hostile manifest must not make load_from_disk read outside the
  // archive directory: plant a decoy image one level up and entries whose
  // file names encode_key could never have produced.
  const auto parent = std::filesystem::path(dir).parent_path();
  {
    auto db = rrd::RoundRobinDb::create(rrd::RrdDef::ganglia_default(), 999);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(rrd::RrdCodec::save_file(*db, (parent / "x.grrd").string())
                    .ok());
    std::ofstream manifest(dir + "/manifest.tsv", std::ios::app);
    manifest << "../x.grrd\tevil/relative\n";
    manifest << "/etc/passwd.grrd\tevil/absolute\n";
    manifest << "a b.grrd\tevil/unescaped-byte\n";
  }
  Archiver restored(options);
  ASSERT_TRUE(restored.load_from_disk().ok());
  // Only the legitimate archive came back; no hostile key exists.
  EXPECT_EQ(restored.database_count(), 1u);
  std::filesystem::remove(parent / "x.grrd");
}

TEST(Persistence, KillNineLeftoversRestoreEveryIntactArchive) {
  const std::string dir = fresh_dir("kill9");
  ArchiverOptions options{15, 120, dir};
  {
    Archiver archiver(options);
    archiver.record_cluster("src", two_metric_cluster(1.0), 1000);
    SummaryInfo summary;
    summary.hosts_up = 1;
    summary.metrics["load_one"] = {4.0, 2, MetricType::float_t, ""};
    archiver.record_summary("src", summary, 1000);
    ASSERT_TRUE(archiver.flush_to_disk().ok());
  }
  // Simulate kill -9 mid-flush: leftover tmp files (one garbage, one
  // shadowing a real image) plus one torn final image.
  std::ofstream(dir + "/half-written.grrd.tmp") << "partial";
  std::ofstream(dir + "/manifest.tsv.tmp") << "partial";
  bool truncated = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!truncated && entry.path().filename().string().find("cpu_user") !=
                          std::string::npos) {
      std::ofstream(entry.path(), std::ios::trunc) << "torn";
      truncated = true;
    }
  }
  ASSERT_TRUE(truncated);

  Archiver restored(options);
  ASSERT_TRUE(restored.load_from_disk().ok());
  // Both intact archives (host metric + summary) survived, tmps are gone.
  EXPECT_EQ(restored.database_count(), 2u);
  EXPECT_TRUE(
      restored.fetch_host_metric("src", "c", "h0", "load_one", 900, 1200)
          .ok());
  EXPECT_TRUE(restored.fetch_summary_metric("src", "load_one", 900, 1200)
                  .ok());
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(Persistence, FlushDirtyWritesOnlyDirtyArchives) {
  const std::string dir = fresh_dir("dirty");
  ArchiverOptions options{15, 120, dir};
  Archiver archiver(options);
  archiver.record_cluster("src", two_metric_cluster(1.0), 1000);
  EXPECT_EQ(archiver.dirty_count(), 2u);

  // First pass: both archives new and dirty, manifest written.
  auto stats = archiver.flush_dirty();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->archives_written, 2u);
  EXPECT_TRUE(stats->manifest_rewritten);
  EXPECT_EQ(archiver.dirty_count(), 0u);

  // Nothing dirty, key set unchanged: a no-op pass.
  stats = archiver.flush_dirty();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->archives_written, 0u);
  EXPECT_FALSE(stats->manifest_rewritten);

  // Touch one archive: only it is rewritten, manifest untouched.
  archiver.record_host_metric("src", "c", tiny_cluster(2.0).hosts.at("h0"),
                              tiny_cluster(2.0).hosts.at("h0").metrics[0],
                              1015);
  EXPECT_EQ(archiver.dirty_count(), 1u);
  stats = archiver.flush_dirty();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->archives_written, 1u);
  EXPECT_FALSE(stats->manifest_rewritten);
  EXPECT_GE(archiver.flush_count(), 3u);
  EXPECT_GE(archiver.seconds_since_last_flush(), 0.0);
}

TEST(Persistence, FlusherStartStopIsIdempotent) {
  const std::string dir = fresh_dir("flusher");
  ArchiverOptions options{15, 120, dir, /*flush_interval_s=*/1};
  Archiver archiver(options);
  EXPECT_FALSE(archiver.flusher_running());
  ASSERT_TRUE(archiver.start_flusher().ok());
  EXPECT_TRUE(archiver.flusher_running());
  ASSERT_TRUE(archiver.start_flusher().ok());  // second start: no-op
  archiver.stop_flusher();
  EXPECT_FALSE(archiver.flusher_running());
  archiver.stop_flusher();  // double stop: no-op
  EXPECT_FALSE(archiver.flusher_running());
  // And the final explicit flush still works after the flusher is gone.
  archiver.record_cluster("src", tiny_cluster(1.0), 1000);
  EXPECT_TRUE(archiver.flush_to_disk().ok());
}

TEST(Persistence, GmetadRestartKeepsHistory) {
  const std::string dir = fresh_dir("daemon");
  sim::SimClock clock;
  net::InMemTransport transport;

  gmon::PseudoGmondConfig cluster_config;
  cluster_config.cluster_name = "meteor";
  cluster_config.host_count = 3;
  gmon::PseudoGmond emulator(cluster_config, clock);
  transport.register_service("meteor:8649", emulator.service());

  GmetadConfig config;
  config.grid_name = "persisted";
  config.xml_bind = "gp:8651";
  config.interactive_bind = "gp:8652";
  config.archive_dir = dir;
  DataSourceConfig ds;
  ds.name = "meteor";
  ds.addresses = {"meteor:8649"};
  config.sources.push_back(ds);

  std::int64_t history_start = 0;
  {
    Gmetad first(config, transport, clock);
    history_start = clock.now_seconds();
    for (int round = 0; round < 10; ++round) {
      clock.advance_seconds(15);
      first.poll_once();
    }
    ASSERT_TRUE(first.start().ok());  // start/stop drives load/flush
    first.stop();
  }

  // A brand-new instance (fresh process, same config) sees the history.
  net::InMemTransport transport2;
  transport2.register_service("meteor:8649", emulator.service());
  Gmetad second(config, transport2, clock);
  ASSERT_TRUE(second.start().ok());
  auto series = second.archiver().fetch_summary_metric(
      "meteor", "load_one", history_start, clock.now_seconds());
  ASSERT_TRUE(series.ok()) << series.error().to_string();
  std::size_t known = 0;
  for (double v : series->values) {
    if (!rrd::is_unknown(v)) ++known;
  }
  EXPECT_GT(known, 3u) << "pre-restart history visible after restart";
  second.stop();
}

}  // namespace
}  // namespace ganglia::gmetad
