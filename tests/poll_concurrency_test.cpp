// Concurrency tests for the poll pipeline.
//
// The pool overlaps fetch/parse/archive across sources while other threads
// read the store, send JOINs, and prune expired children.  These tests are
// the ThreadSanitizer workload for that machinery: a torn-snapshot reader
// race, a prune-vs-poll stress with dynamic children, and the daemon's
// per-source due-time scheduler.

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "gmetad/archiver.hpp"
#include "gmetad/gmetad.hpp"
#include "gmetad/join.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"
#include "test_dir.hpp"
#include "xml/ganglia.hpp"

namespace ganglia {
namespace {

using gmetad::Gmetad;
using gmetad::GmetadConfig;

/// A source whose every report stamps the same per-fetch epoch value on
/// every host: any snapshot mixing epochs is a torn publish.
class EpochSource {
 public:
  EpochSource(std::string cluster, std::size_t hosts)
      : cluster_(std::move(cluster)), hosts_(hosts) {}

  net::ServiceFn service() {
    return [this](std::string_view) -> Result<std::string> {
      const std::uint64_t epoch =
          fetches_.fetch_add(1, std::memory_order_relaxed);
      Report report;
      report.version = "3.0";
      report.source = "epoch-source";
      Cluster cluster;
      cluster.name = cluster_;
      cluster.localtime = 1000;
      for (std::size_t h = 0; h < hosts_; ++h) {
        Host host;
        host.name = "node-" + std::to_string(h);
        host.ip = "10.0.0." + std::to_string(h);
        host.reported = 1000;
        Metric m;
        m.name = "epoch";
        m.set_uint(epoch, MetricType::uint32);
        host.metrics.push_back(std::move(m));
        cluster.hosts.emplace(host.name, std::move(host));
      }
      report.clusters.push_back(std::move(cluster));
      return write_report(report, {});
    };
  }

  std::uint64_t fetches() const {
    return fetches_.load(std::memory_order_relaxed);
  }

 private:
  std::string cluster_;
  std::size_t hosts_;
  std::atomic<std::uint64_t> fetches_{0};
};

GmetadConfig pool_config(std::size_t sources, std::size_t threads) {
  GmetadConfig config;
  config.grid_name = "concurrency";
  config.mode = gmetad::Mode::one_level;
  config.archive_enabled = false;
  config.poll_threads = threads;
  for (std::size_t i = 0; i < sources; ++i) {
    gmetad::DataSourceConfig ds;
    ds.name = "c" + std::to_string(i);
    ds.addresses = {"c" + std::to_string(i) + ".gmon:8649"};
    config.sources.push_back(std::move(ds));
  }
  return config;
}

TEST(PollConcurrency, TornSnapshotNeverObserved) {
  constexpr std::size_t kSources = 4;
  constexpr std::size_t kHosts = 16;
  constexpr int kRounds = 40;

  net::InMemTransport transport;
  sim::SimClock clock;
  std::vector<std::unique_ptr<EpochSource>> sources;
  for (std::size_t i = 0; i < kSources; ++i) {
    sources.push_back(
        std::make_unique<EpochSource>("c" + std::to_string(i), kHosts));
    transport.register_service("c" + std::to_string(i) + ".gmon:8649",
                               sources.back()->service());
  }
  Gmetad node(pool_config(kSources, 4), transport, clock);
  ASSERT_EQ(node.poll_threads(), 4u);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_checked{0};
  const auto reader = [&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < kSources; ++i) {
        auto snapshot = node.store().get("c" + std::to_string(i));
        if (!snapshot) continue;
        for (const Cluster& cluster : snapshot->clusters()) {
          std::int64_t first_epoch = -1;
          for (const auto& [host_name, host] : cluster.hosts) {
            (void)host_name;
            const Metric* m = host.find_metric("epoch");
            ASSERT_NE(m, nullptr);
            const auto epoch = static_cast<std::int64_t>(m->numeric);
            if (first_epoch < 0) first_epoch = epoch;
            EXPECT_EQ(epoch, first_epoch)
                << "snapshot of " << cluster.name << " mixes two fetches";
          }
        }
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);

  for (int round = 0; round < kRounds; ++round) {
    clock.advance_seconds(15);
    auto results = node.poll_once();
    for (const auto& r : results) EXPECT_TRUE(r.ok) << r.error;
  }
  done = true;
  r1.join();
  r2.join();

  EXPECT_GT(snapshots_checked.load(), 0u);
  for (const auto& source : sources) {
    EXPECT_EQ(source->fetches(), static_cast<std::uint64_t>(kRounds));
  }
}

TEST(PollConcurrency, PruneVsPollStress) {
  // Dynamic children join, get polled, and expire while a poller thread
  // drives rounds: prune (sources_/schedule_/store mutation) races real
  // in-flight polls holding shared_ptr copies of the sources.
  constexpr std::size_t kStatic = 2;
  constexpr int kChildren = 8;
  constexpr int kRounds = 60;

  net::InMemTransport transport;
  sim::SimClock clock;
  std::vector<std::unique_ptr<EpochSource>> sources;
  for (std::size_t i = 0; i < kStatic; ++i) {
    sources.push_back(
        std::make_unique<EpochSource>("c" + std::to_string(i), 4));
    transport.register_service("c" + std::to_string(i) + ".gmon:8649",
                               sources.back()->service());
  }
  for (int i = 0; i < kChildren; ++i) {
    sources.push_back(
        std::make_unique<EpochSource>("child-" + std::to_string(i), 4));
    transport.register_service("child-" + std::to_string(i) + ":8651",
                               sources.back()->service());
  }

  GmetadConfig config = pool_config(kStatic, 4);
  config.join_key = "sekrit";
  config.join_expiry_s = 60;  // two 15 s rounds of silence and a child is out
  Gmetad node(std::move(config), transport, clock);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      node.poll_once();
    }
  });

  // Joins and expiries race the poller: every iteration refreshes one
  // child's join and advances time, so membership churns continuously.
  for (int i = 0; i < kRounds; ++i) {
    gmetad::JoinRequest request;
    request.name = "child-" + std::to_string(i % kChildren);
    request.address = request.name + ":8651";
    request.authority = "gmetad://" + request.name + "/";
    auto reply = node.handle_interactive(
        gmetad::format_join_line(request, "sekrit"));
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    clock.advance_seconds(15);
  }
  done = true;
  poller.join();

  // Let every join lapse, then confirm pruning converged: only the static
  // sources remain and their data is still being served.
  clock.advance_seconds(static_cast<double>(config.join_expiry_s + 31));
  node.poll_once();
  EXPECT_EQ(node.joins().children().size(), 0u);
  EXPECT_EQ(node.sources().size(), kStatic);
  for (std::size_t i = 0; i < kStatic; ++i) {
    EXPECT_NE(node.store().get("c" + std::to_string(i)), nullptr);
  }
}

TEST(PollConcurrency, DaemonHonoursPerSourceIntervals) {
  // Due-time scheduling: a 1 s source must be polled several times while a
  // 10 s source is polled at most twice over a ~3 s daemon run.
  WallClock clock;
  net::InMemTransport transport;
  EpochSource fast("c0", 2);
  EpochSource slow("c1", 2);
  transport.register_service("c0.gmon:8649", fast.service());
  transport.register_service("c1.gmon:8649", slow.service());

  GmetadConfig config = pool_config(2, 2);
  config.sources[0].poll_interval_s = 1;
  config.sources[1].poll_interval_s = 10;
  config.xml_bind = "daemon.xml:0";
  config.interactive_bind = "daemon.interactive:0";
  Gmetad node(std::move(config), transport, clock);
  ASSERT_TRUE(node.start().ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(3300);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  node.stop();

  // Fast source: due at t=0,1,2,3 (allow scheduling slack).  Slow source:
  // the t=0 poll only, with one more tolerated for timing jitter.
  EXPECT_GE(fast.fetches(), 3u);
  EXPECT_LE(slow.fetches(), 2u);
  EXPECT_GE(slow.fetches(), 1u);
  EXPECT_GT(fast.fetches(), slow.fetches());
}

Cluster archiver_cluster(const std::string& name, std::size_t hosts,
                         std::size_t metrics) {
  Cluster c;
  c.name = name;
  c.localtime = 1000;
  for (std::size_t i = 0; i < hosts; ++i) {
    Host h;
    h.name = "node-" + std::to_string(i);
    h.ip = "10.0.0.1";
    h.reported = 995;
    h.tn = 1;
    for (std::size_t m = 0; m < metrics; ++m) {
      Metric metric;
      metric.name = "metric_" + std::to_string(m);
      metric.set_double(1.5);
      metric.tn = 1;
      h.metrics.push_back(std::move(metric));
    }
    c.hosts.emplace(h.name, std::move(h));
  }
  return c;
}

TEST(PollConcurrency, ArchiverFlushHoldsNoShardLockDuringFileIo) {
  // The write-behind contract: a flush serialises a shard's archives under
  // that one shard's mutex but performs every file write with no shard lock
  // held.  Updater threads (one source each — the scheduler's
  // one-poll-per-source invariant) run while a single large full flush is
  // mid-flight; because the flush's dominant phase is its 2048 file writes,
  // every updater must complete whole polls *during* the flush.  Were the
  // shard mutexes held across the file I/O, no poll (each poll needs every
  // shard) could finish until the flush did.  TSan (CI runs this file under
  // it) checks the locking discipline itself.
  const ganglia::testing::TestDir scratch;
  const auto dir = scratch.path() / "ganglia_flush_stall";
  gmetad::ArchiverOptions options;
  options.step_s = 15;
  options.persist_dir = dir.string();
  gmetad::Archiver archiver(options);

  constexpr std::size_t kSources = 4;
  std::vector<Cluster> clusters;
  for (std::size_t s = 0; s < kSources; ++s) {
    clusters.push_back(
        archiver_cluster("c" + std::to_string(s), /*hosts=*/32,
                         /*metrics=*/16));
  }
  for (std::size_t s = 0; s < kSources; ++s) {
    archiver.record_cluster("src" + std::to_string(s), clusters[s], 1000);
  }
  ASSERT_EQ(archiver.database_count(), kSources * 32 * 16);
  ASSERT_TRUE(archiver.flush_to_disk().ok());  // all images exist on disk

  std::atomic<bool> flushing{false};
  std::atomic<bool> flush_done{false};
  std::thread flusher([&] {
    flushing.store(true, std::memory_order_release);
    const auto s = archiver.flush_to_disk();
    flush_done.store(true, std::memory_order_release);
    ASSERT_TRUE(s.ok());
  });

  std::array<std::size_t, kSources> rounds_during{};
  std::vector<std::thread> updaters;
  for (std::size_t s = 0; s < kSources; ++s) {
    updaters.emplace_back([&, s] {
      while (!flushing.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::int64_t now = 1000;
      for (std::size_t r = 0; r < 10000; ++r) {
        if (flush_done.load(std::memory_order_acquire)) break;
        now += 15;
        archiver.record_cluster("src" + std::to_string(s), clusters[s], now);
        // Count only polls that ran wholly inside the flush window.
        if (!flush_done.load(std::memory_order_acquire)) ++rounds_during[s];
      }
    });
  }
  for (std::thread& t : updaters) t.join();
  flusher.join();

  for (std::size_t s = 0; s < kSources; ++s) {
    EXPECT_GE(rounds_during[s], 1u)
        << "source " << s << " stalled behind flush file I/O";
  }
  EXPECT_GE(archiver.flush_count(), 2u);
}

}  // namespace
}  // namespace ganglia
