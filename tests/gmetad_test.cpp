// Unit tests for src/gmetad: config parsing, data-source failover, the
// snapshot store, and the archiver.

#include <gtest/gtest.h>

#include "gmetad/archiver.hpp"
#include "gmetad/config.hpp"
#include "gmetad/data_source.hpp"
#include "gmetad/store.hpp"
#include "net/inmem.hpp"

namespace ganglia::gmetad {
namespace {

// ------------------------------------------------------------------ config

TEST(Config, ParsesFullExample) {
  auto config = parse_config(R"(
# The SDSC wide-area monitor
gridname "SDSC"
authority "gmetad://sdsc.example:8651/"
mode n-level
data_source "meteor" 15 m0:8649 m1:8649 m2:8649
data_source "nashi" n0:8649
data_source "attic" 30 attic-gmeta:8651
trusted_hosts 10.0.0.1 parent.example
xml_port 8651
interactive_port 8652
connect_timeout 5
archive on
archive_step 15
join_key "sekrit"
join_expiry 120
)");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  EXPECT_EQ(config->grid_name, "SDSC");
  EXPECT_EQ(config->authority, "gmetad://sdsc.example:8651/");
  EXPECT_EQ(config->mode, Mode::n_level);
  ASSERT_EQ(config->sources.size(), 3u);
  EXPECT_EQ(config->sources[0].name, "meteor");
  EXPECT_EQ(config->sources[0].poll_interval_s, 15);
  EXPECT_EQ(config->sources[0].addresses.size(), 3u);
  EXPECT_EQ(config->sources[1].poll_interval_s, 15);  // default
  EXPECT_EQ(config->sources[2].poll_interval_s, 30);
  EXPECT_EQ(config->trusted_hosts.size(), 2u);
  EXPECT_EQ(config->xml_bind, "127.0.0.1:8651");
  EXPECT_EQ(config->connect_timeout_s, 5);
  EXPECT_EQ(config->join_key, "sekrit");
  EXPECT_EQ(config->join_expiry_s, 120);
}

TEST(Config, DefaultsAreSane) {
  auto config = parse_config("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->mode, Mode::n_level);
  EXPECT_TRUE(config->sources.empty());
  EXPECT_TRUE(config->trusted_hosts.empty());
  EXPECT_TRUE(config->archive_enabled);
}

TEST(Config, OneLevelModeAccepted) {
  auto config = parse_config("mode one-level\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->mode, Mode::one_level);
  auto alias = parse_config("mode 1-level\n");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->mode, Mode::one_level);
}

TEST(Config, QuotedNamesMayContainSpaces) {
  auto config = parse_config("data_source \"my cluster\" h:1\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->sources[0].name, "my cluster");
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  auto config = parse_config("\n  # only a comment\n\t\ngridname \"x\" # tail\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->grid_name, "x");
}

struct BadConfigCase {
  const char* name;
  const char* text;
};

class ConfigRejects : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(ConfigRejects, InvalidDirective) {
  auto config = parse_config(GetParam().text);
  ASSERT_FALSE(config.ok()) << GetParam().text;
  EXPECT_EQ(config.code(), Errc::parse_error);
}

INSTANTIATE_TEST_SUITE_P(
    Invalid, ConfigRejects,
    ::testing::Values(
        BadConfigCase{"unknown_directive", "flux_capacitor on\n"},
        BadConfigCase{"unterminated_quote", "gridname \"oops\n"},
        BadConfigCase{"ds_no_address", "data_source \"x\" 15\n"},
        BadConfigCase{"ds_bad_address", "data_source \"x\" not-an-addr\n"},
        BadConfigCase{"ds_zero_interval", "data_source \"x\" 0 h:1\n"},
        BadConfigCase{"ds_duplicate",
                      "data_source \"x\" h:1\ndata_source \"x\" h:2\n"},
        BadConfigCase{"bad_mode", "mode sideways\n"},
        BadConfigCase{"bad_port", "xml_port 99999\n"},
        BadConfigCase{"bad_timeout", "connect_timeout -1\n"},
        BadConfigCase{"bad_archive", "archive maybe\n"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Config, ErrorsNameTheLine) {
  auto config = parse_config("gridname \"ok\"\nbogus\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.error().message.find("line 2"), std::string::npos);
}

// -------------------------------------------------------------- datasource

net::ServiceFn xml_service(const std::string& cluster_name) {
  return [cluster_name](std::string_view) -> Result<std::string> {
    return "<GANGLIA_XML VERSION=\"1\" SOURCE=\"gmond\"><CLUSTER NAME=\"" +
           cluster_name + "\" LOCALTIME=\"1\"/></GANGLIA_XML>";
  };
}

DataSourceConfig source_config(std::string name,
                               std::vector<std::string> addresses) {
  DataSourceConfig config;
  config.name = std::move(name);
  config.addresses = std::move(addresses);
  return config;
}

TEST(DataSource, FetchesFromPreferredAddress) {
  net::InMemTransport transport;
  transport.register_service("a:1", xml_service("alpha"));
  DataSource source(source_config("alpha", {"a:1", "b:1"}));
  auto body = source.fetch(transport, kMicrosPerSecond, 100);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(source.reachable());
  EXPECT_EQ(source.preferred_address(), "a:1");
  EXPECT_EQ(source.last_success_s(), 100);
  EXPECT_EQ(source.failovers(), 0u);
}

TEST(DataSource, FailsOverToNextCandidateAndSticksToIt) {
  net::InMemTransport transport;
  transport.register_service("a:1", xml_service("alpha"));
  transport.register_service("b:1", xml_service("alpha"));
  net::FailurePolicy down;
  down.kind = net::FailurePolicy::Kind::refuse;
  transport.set_failure("a:1", down);

  DataSource source(source_config("alpha", {"a:1", "b:1"}));
  ASSERT_TRUE(source.fetch(transport, kMicrosPerSecond, 100).ok());
  EXPECT_EQ(source.preferred_address(), "b:1");
  EXPECT_EQ(source.failovers(), 1u);

  // Next poll goes straight to the promoted address: one connect only.
  transport.reset_stats();
  ASSERT_TRUE(source.fetch(transport, kMicrosPerSecond, 115).ok());
  EXPECT_EQ(transport.stats("a:1").connects, 0u);
  EXPECT_EQ(transport.stats("b:1").connects, 1u);
}

TEST(DataSource, ExhaustionReportsAndRecovers) {
  net::InMemTransport transport;
  transport.register_service("a:1", xml_service("alpha"));
  net::FailurePolicy down;
  down.kind = net::FailurePolicy::Kind::refuse;
  transport.set_failure("a:1", down);

  DataSource source(source_config("alpha", {"a:1"}));
  auto body = source.fetch(transport, kMicrosPerSecond, 100);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.code(), Errc::exhausted);
  EXPECT_FALSE(source.reachable());
  EXPECT_EQ(source.consecutive_failures(), 1u);
  EXPECT_FALSE(source.last_error().empty());

  // "Gmeta retries the failed node periodically": recovery reattaches.
  transport.clear_failure("a:1");
  ASSERT_TRUE(source.fetch(transport, kMicrosPerSecond, 115).ok());
  EXPECT_TRUE(source.reachable());
  EXPECT_EQ(source.consecutive_failures(), 0u);
}

TEST(DataSource, MidStreamTruncationTriggersFailover) {
  net::InMemTransport transport;
  transport.register_service("a:1", xml_service("alpha"));
  transport.register_service("b:1", xml_service("alpha"));
  net::FailurePolicy flaky;
  flaky.kind = net::FailurePolicy::Kind::truncate;
  flaky.truncate_after = 10;
  transport.set_failure("a:1", flaky);

  DataSource source(source_config("alpha", {"a:1", "b:1"}));
  auto body = source.fetch(transport, kMicrosPerSecond, 100);
  ASSERT_TRUE(body.ok()) << "intermittent failure must be masked";
  EXPECT_EQ(source.preferred_address(), "b:1");
}

// ------------------------------------------------------------------- store

Report cluster_report(const std::string& name, int hosts) {
  Report report;
  Cluster c;
  c.name = name;
  for (int i = 0; i < hosts; ++i) {
    Host h;
    h.name = "h" + std::to_string(i);
    h.tn = 1;
    Metric m;
    m.name = "load_one";
    m.set_double(1.0 + i);
    h.metrics.push_back(std::move(m));
    c.hosts.emplace(h.name, std::move(h));
  }
  report.clusters.push_back(std::move(c));
  return report;
}

TEST(Store, PublishAndLookup) {
  Store store;
  store.publish(std::make_shared<SourceSnapshot>("alpha",
                                                 cluster_report("alpha", 3), 100));
  EXPECT_EQ(store.size(), 1u);
  auto snapshot = store.get("alpha");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->host_count(), 3u);
  EXPECT_FALSE(snapshot->is_grid());
  EXPECT_EQ(store.get("missing"), nullptr);
}

TEST(Store, PublishSwapsAtomicallyOldReadersKeepTheirSnapshot) {
  Store store;
  store.publish(std::make_shared<SourceSnapshot>("alpha",
                                                 cluster_report("alpha", 2), 100));
  auto old_snapshot = store.get("alpha");
  store.publish(std::make_shared<SourceSnapshot>("alpha",
                                                 cluster_report("alpha", 5), 115));
  // The old reader still sees 2 hosts; new readers see 5.
  EXPECT_EQ(old_snapshot->host_count(), 2u);
  EXPECT_EQ(store.get("alpha")->host_count(), 5u);
}

TEST(Store, AllIsOrderedByName) {
  Store store;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    store.publish(std::make_shared<SourceSnapshot>(name,
                                                   cluster_report(name, 1), 1));
  }
  const auto all = store.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name(), "alpha");
  EXPECT_EQ(all[2]->name(), "zeta");
  store.remove("mid");
  EXPECT_EQ(store.all().size(), 2u);
}

TEST(Store, SnapshotIndexesClustersAndGrids) {
  Report report;
  Grid grid;
  grid.name = "child";
  grid.authority = "gmetad://child:1/";
  Cluster inner;
  inner.name = "deep";
  Host deep_host;
  deep_host.name = "h";
  inner.hosts.emplace("h", std::move(deep_host));
  grid.clusters.push_back(std::move(inner));
  report.grids.push_back(std::move(grid));

  SourceSnapshot snapshot("child", std::move(report), 50);
  EXPECT_TRUE(snapshot.is_grid());
  EXPECT_EQ(snapshot.authority(), "gmetad://child:1/");
  ASSERT_NE(snapshot.find_grid("child"), nullptr);
  ASSERT_NE(snapshot.find_cluster("deep"), nullptr);
  EXPECT_EQ(snapshot.find_cluster("nope"), nullptr);
  EXPECT_EQ(snapshot.host_count(), 1u);
}

TEST(Store, UnreachablePlaceholderKeepsLastKnownData) {
  Store store;
  store.publish(std::make_shared<SourceSnapshot>("alpha",
                                                 cluster_report("alpha", 4), 100));
  store.publish(SourceSnapshot::unreachable_from(store.get("alpha"), "alpha"));

  auto snapshot = store.get("alpha");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->reachable());
  EXPECT_EQ(snapshot->host_count(), 4u) << "stale data kept for queries";
  EXPECT_EQ(snapshot->fetched_at(), 100) << "freshness reflects real data age";
  ASSERT_NE(snapshot->find_cluster("alpha"), nullptr);
}

TEST(Store, UnreachableWithNoHistoryIsEmpty) {
  auto snapshot = SourceSnapshot::unreachable_from(nullptr, "ghost");
  EXPECT_FALSE(snapshot->reachable());
  EXPECT_EQ(snapshot->host_count(), 0u);
  EXPECT_TRUE(snapshot->summary().empty());
}

TEST(Store, LazySummaryComputedOnDemand) {
  SourceSnapshot snapshot("alpha", cluster_report("alpha", 3), 1,
                          /*eager_summary=*/false);
  const SummaryInfo& summary = snapshot.summary();
  EXPECT_EQ(summary.hosts_up, 3u);
  EXPECT_DOUBLE_EQ(summary.metrics.at("load_one").sum, 1 + 2 + 3);
  // Idempotent.
  EXPECT_EQ(&snapshot.summary(), &summary);
}

// ---------------------------------------------------------------- archiver

Cluster small_cluster(int hosts, double load) {
  Cluster c;
  c.name = "c";
  for (int i = 0; i < hosts; ++i) {
    Host h;
    h.name = "h" + std::to_string(i);
    h.tn = 1;
    Metric m;
    m.name = "load_one";
    m.set_double(load);
    h.metrics.push_back(m);
    Metric s;
    s.name = "os_name";
    s.set_string("Linux");
    h.metrics.push_back(s);
    c.hosts.emplace(h.name, std::move(h));
  }
  return c;
}

TEST(Archiver, RecordsNumericHostMetricsOnly) {
  Archiver archiver({15, 120, ""});
  const Cluster c = small_cluster(2, 0.5);
  archiver.record_cluster("src", c, 1000);
  // 2 hosts x 1 numeric metric; the string metric opens no database.
  EXPECT_EQ(archiver.database_count(), 2u);
  EXPECT_EQ(archiver.rrd_updates(), 2u);
}

TEST(Archiver, HostMetricHistoryIsFetchable) {
  Archiver archiver({15, 120, ""});
  for (int round = 0; round < 10; ++round) {
    archiver.record_cluster("src", small_cluster(1, 2.5),
                            1000 + round * 15);
  }
  auto series = archiver.fetch_host_metric("src", "c", "h0", "load_one",
                                           1000, 1150);
  ASSERT_TRUE(series.ok()) << series.error().to_string();
  bool any_known = false;
  for (double v : series->values) {
    if (!rrd::is_unknown(v)) {
      EXPECT_DOUBLE_EQ(v, 2.5);
      any_known = true;
    }
  }
  EXPECT_TRUE(any_known);
}

TEST(Archiver, SummaryArchivesCarrySumAndNum) {
  Archiver archiver({15, 120, ""});
  SummaryInfo summary;
  summary.hosts_up = 4;
  summary.metrics["load_one"] = {10.0, 4, MetricType::float_t, ""};
  for (int round = 0; round < 8; ++round) {
    archiver.record_summary("grid", summary, 1000 + round * 15);
  }
  auto sums = archiver.fetch_summary_metric("grid", "load_one", 1030, 1100, 0);
  auto nums = archiver.fetch_summary_metric("grid", "load_one", 1030, 1100, 1);
  ASSERT_TRUE(sums.ok());
  ASSERT_TRUE(nums.ok());
  bool checked = false;
  for (std::size_t i = 0; i < sums->values.size(); ++i) {
    if (rrd::is_unknown(sums->values[i])) continue;
    EXPECT_DOUBLE_EQ(sums->values[i], 10.0);
    EXPECT_DOUBLE_EQ(nums->values[i], 4.0);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(Archiver, DownHostsAreNotArchived) {
  Archiver archiver({15, 120, ""});
  Cluster c = small_cluster(2, 1.0);
  c.hosts.at("h1").tn = 500;  // down
  archiver.record_cluster("src", c, 1000);
  EXPECT_EQ(archiver.database_count(), 1u);
  EXPECT_FALSE(
      archiver.fetch_host_metric("src", "c", "h1", "load_one", 0, 2000).ok());
}

TEST(Archiver, UnknownMetricLookupFails) {
  Archiver archiver({15, 120, ""});
  EXPECT_EQ(
      archiver.fetch_host_metric("a", "b", "c", "d", 0, 10).code(),
      Errc::not_found);
  EXPECT_EQ(archiver.fetch_summary_metric("a", "b", 0, 10).code(),
            Errc::not_found);
}

TEST(Archiver, BatchedPathMatchesPerMetricBaseline) {
  // record_cluster (shard-batched, handle-cached) must be observably
  // identical to feeding every metric through record_host_metric.
  Archiver batched({15, 120, ""});
  Archiver baseline({15, 120, ""});
  for (int round = 0; round < 12; ++round) {
    const std::int64_t now = 1000 + round * 15;
    const Cluster c = small_cluster(3, 0.5 + round);
    batched.record_cluster("src", c, now);
    for (const auto& [name, host] : c.hosts) {
      for (const Metric& metric : host.metrics) {
        baseline.record_host_metric("src", c.name, host, metric, now);
      }
    }
  }
  EXPECT_EQ(batched.database_count(), baseline.database_count());
  EXPECT_EQ(batched.rrd_updates(), baseline.rrd_updates());
  for (int i = 0; i < 3; ++i) {
    const std::string host = "h" + std::to_string(i);
    auto a = batched.fetch_host_metric("src", "c", host, "load_one", 1000,
                                       1200);
    auto b = baseline.fetch_host_metric("src", "c", host, "load_one", 1000,
                                        1200);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->start, b->start);
    EXPECT_EQ(a->step, b->step);
    ASSERT_EQ(a->values.size(), b->values.size());
    for (std::size_t j = 0; j < a->values.size(); ++j) {
      if (rrd::is_unknown(a->values[j])) {
        EXPECT_TRUE(rrd::is_unknown(b->values[j]));
      } else {
        EXPECT_DOUBLE_EQ(a->values[j], b->values[j]);
      }
    }
  }
}

TEST(Archiver, StorageIsBoundedAndCountersReset) {
  Archiver archiver({15, 120, ""});
  archiver.record_cluster("src", small_cluster(3, 1.0), 1000);
  const std::size_t bytes_initial = archiver.storage_bytes();
  for (int round = 1; round < 50; ++round) {
    archiver.record_cluster("src", small_cluster(3, 1.0), 1000 + round * 15);
  }
  EXPECT_EQ(archiver.storage_bytes(), bytes_initial)
      << "round-robin archives never grow";
  EXPECT_EQ(archiver.rrd_updates(), 150u);
  archiver.reset_counters();
  EXPECT_EQ(archiver.rrd_updates(), 0u);
}

}  // namespace
}  // namespace ganglia::gmetad
