// Unit tests for src/gmon: the wire codec, soft-state cluster membership,
// full gmond agents on the simulated multicast bus, the pseudo-gmond
// emulator, the metric catalogue, and the /proc sampler.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gmon/cluster_state.hpp"
#include "gmon/gmond.hpp"
#include "gmon/metrics.hpp"
#include "gmon/proc_sampler.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "gmon/wire.hpp"
#include "sim/sim_clock.hpp"
#include "test_dir.hpp"

namespace ganglia::gmon {
namespace {

// ------------------------------------------------------------------- wire

TEST(Wire, HeartbeatRoundTrip) {
  HeartbeatMessage hb{"node-7", "10.0.0.7", 1'062'000'000};
  auto decoded = decode(encode(hb));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const auto* back = std::get_if<HeartbeatMessage>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->host_name, "node-7");
  EXPECT_EQ(back->host_ip, "10.0.0.7");
  EXPECT_EQ(back->gmond_started, 1'062'000'000);
}

TEST(Wire, MetricRoundTrip) {
  MetricMessage msg;
  msg.host_name = "node-1";
  msg.host_ip = "10.0.0.1";
  msg.metric.name = "load_one";
  msg.metric.set_double(1.75);
  msg.metric.type = MetricType::float_t;
  msg.metric.units = "";
  msg.metric.tmax = 70;
  msg.metric.dmax = 0;
  msg.metric.slope = Slope::both;

  auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  const auto* back = std::get_if<MetricMessage>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->metric.name, "load_one");
  EXPECT_DOUBLE_EQ(back->metric.numeric, 1.75);
  EXPECT_EQ(back->metric.tmax, 70u);
  EXPECT_EQ(back->metric.slope, Slope::both);
}

TEST(Wire, StringMetricRoundTrip) {
  MetricMessage msg;
  msg.host_name = "n";
  msg.host_ip = "1.1.1.1";
  msg.metric.name = "os_name";
  msg.metric.set_string("Linux");
  auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<MetricMessage>(*decoded).metric.value, "Linux");
}

TEST(Wire, RejectsGarbage) {
  EXPECT_FALSE(decode("").ok());
  EXPECT_FALSE(decode("\x07junk").ok());
  const std::string valid = encode(HeartbeatMessage{"n", "i", 1});
  EXPECT_FALSE(decode(valid.substr(0, valid.size() - 3)).ok());  // truncated
  std::string trailing = valid + "zz";
  EXPECT_FALSE(decode(trailing).ok());
}

TEST(Wire, RejectsBadEnumAndNonNumericVal) {
  MetricMessage msg;
  msg.host_name = "n";
  msg.host_ip = "i";
  msg.metric.name = "x";
  msg.metric.type = MetricType::float_t;
  msg.metric.value = "not-a-number";
  EXPECT_FALSE(decode(encode(msg)).ok());
}

// ----------------------------------------------------------- cluster state

ClusterState make_state() {
  Cluster attrs;
  attrs.name = "alpha";
  attrs.owner = "test";
  return ClusterState(std::move(attrs));
}

TEST(ClusterState, HeartbeatCreatesHost) {
  ClusterState state = make_state();
  state.apply_heartbeat({"n0", "10.0.0.1", 900}, /*now=*/1000);
  const Cluster snap = state.snapshot(1005);
  ASSERT_EQ(snap.hosts.size(), 1u);
  const Host& h = snap.hosts.at("n0");
  EXPECT_EQ(h.ip, "10.0.0.1");
  EXPECT_EQ(h.gmond_started, 900);
  EXPECT_EQ(h.tn, 5u);
  EXPECT_TRUE(h.is_up());
}

TEST(ClusterState, MetricUpdatesValueAndProvesLiveness) {
  ClusterState state = make_state();
  MetricMessage msg;
  msg.host_name = "n0";
  msg.host_ip = "10.0.0.1";
  msg.metric.name = "load_one";
  msg.metric.set_double(0.5);
  state.apply_metric(msg, 1000);
  msg.metric.set_double(2.5);
  state.apply_metric(msg, 1010);

  const Cluster snap = state.snapshot(1012);
  const Host& h = snap.hosts.at("n0");
  ASSERT_EQ(h.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(h.metrics[0].numeric, 2.5);
  EXPECT_EQ(h.metrics[0].tn, 2u);
  EXPECT_EQ(h.tn, 2u);
}

TEST(ClusterState, SilentHostGoesDownButStaysReported) {
  ClusterState state = make_state();
  state.apply_heartbeat({"n0", "ip", 0}, 1000);
  const Cluster snap = state.snapshot(1000 + 500);
  const Host& h = snap.hosts.at("n0");
  EXPECT_FALSE(h.is_up()) << "500 s silence > 4*TMAX";
  EXPECT_EQ(snap.hosts.size(), 1u) << "down hosts remain for forensics";
}

TEST(ClusterState, HostDmaxExpiryRemovesDepartedNodes) {
  ClusterState state = make_state();
  state.apply_heartbeat({"keeper", "ip", 0}, 1000);
  state.apply_heartbeat({"leaver", "ip", 0}, 1000);
  // Give 'leaver' a dmax by building it via snapshot mutation: instead,
  // expire() honours per-host dmax; the default is 0 (never).  Nothing
  // should be removed.
  EXPECT_EQ(state.expire(10'000), 0u);
  EXPECT_EQ(state.host_count(), 2u);
}

TEST(ClusterState, MetricDmaxExpiryDropsStaleUserMetrics) {
  ClusterState state = make_state();
  MetricMessage msg;
  msg.host_name = "n0";
  msg.host_ip = "ip";
  msg.metric.name = "job_custom";
  msg.metric.set_double(1);
  msg.metric.dmax = 60;  // user metrics announce their own lifetime
  state.apply_metric(msg, 1000);
  state.apply_heartbeat({"n0", "ip", 0}, 1100);  // host alive, metric stale

  EXPECT_EQ(state.expire(1100), 0u);
  EXPECT_TRUE(state.snapshot(1100).hosts.at("n0").metrics.empty());
}

TEST(ClusterState, ReportXmlIsParseable) {
  ClusterState state = make_state();
  state.apply_heartbeat({"n0", "10.0.0.1", 900}, 1000);
  auto parsed = parse_report(state.report_xml(1010, "2.5.4"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->clusters.front().name, "alpha");
  EXPECT_EQ(parsed->clusters.front().hosts.size(), 1u);
}

// ----------------------------------------------------------- gmond agents

struct GmondRig {
  sim::SimClock clock{0};
  sim::EventQueue events{clock};
  sim::MulticastBus bus;
  GmondConfig config;
  std::vector<std::unique_ptr<GmondAgent>> agents;

  explicit GmondRig(std::size_t n, GmondConfig cfg = {}) : config(std::move(cfg)) {
    config.cluster_name = "alpha";
    for (std::size_t i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<GmondAgent>(
          config, "node-" + std::to_string(i), "10.0.0." + std::to_string(i),
          bus, events));
    }
  }
  void start_all() {
    for (auto& a : agents) a->start();
  }
  void run_for_seconds(double s) {
    events.run_until(clock.now_us() + seconds_to_us(s));
  }
};

TEST(Gmond, AgentsLearnEachOtherThroughMulticast) {
  GmondRig rig(4);
  rig.start_all();
  rig.run_for_seconds(60);
  // Redundant global knowledge: every agent knows every node.
  for (auto& agent : rig.agents) {
    EXPECT_EQ(agent->state().host_count(), 4u) << agent->host_name();
  }
}

TEST(Gmond, AnyNodeServesTheCompleteClusterReport) {
  GmondRig rig(3);
  rig.start_all();
  // Agents that start first multicast before later agents join; soft state
  // fills the gaps only as each metric's TMAX window elapses, so run past
  // the longest window (1200 s for identity constants).
  rig.run_for_seconds(1150);
  for (auto& agent : rig.agents) {
    auto parsed = parse_report(agent->report_xml());
    ASSERT_TRUE(parsed.ok());
    const Cluster& c = parsed->clusters.front();
    EXPECT_EQ(c.name, "alpha");
    EXPECT_EQ(c.hosts.size(), 3u);
    // All standard metrics present on each host after all tmax windows.
    for (const auto& [name, host] : c.hosts) {
      (void)name;
      EXPECT_GE(host.metrics.size(), standard_metrics().size() - 1);
    }
  }
}

TEST(Gmond, NewNodeIncorporatedWithoutConfiguration) {
  GmondRig rig(2);
  rig.start_all();
  rig.run_for_seconds(30);
  // A node arrives mid-flight: soft state picks it up automatically.
  rig.agents.push_back(std::make_unique<GmondAgent>(
      rig.config, "late-arrival", "10.0.0.99", rig.bus, rig.events));
  rig.agents.back()->start();
  rig.run_for_seconds(30);
  EXPECT_EQ(rig.agents[0]->state().host_count(), 3u);
}

TEST(Gmond, StoppedAgentGoesDownAtPeers) {
  GmondRig rig(3);
  rig.start_all();
  rig.run_for_seconds(60);
  rig.agents[2]->stop();
  rig.run_for_seconds(120);  // > 4 * 20 s heartbeat tmax

  const Cluster snap =
      rig.agents[0]->state().snapshot(rig.clock.now_seconds());
  EXPECT_FALSE(snap.hosts.at("node-2").is_up());
  EXPECT_TRUE(snap.hosts.at("node-1").is_up());
  // Service refuses once stopped (gmetad fails over to another node).
  auto service = rig.agents[2]->service();
  EXPECT_FALSE(service("").ok());
}

TEST(Gmond, MetricOverridePinsValue) {
  GmondRig rig(2);
  rig.start_all();
  rig.agents[0]->set_metric_override("load_one", 9.75);
  rig.run_for_seconds(120);
  const Cluster snap =
      rig.agents[1]->state().snapshot(rig.clock.now_seconds());
  EXPECT_DOUBLE_EQ(snap.hosts.at("node-0").find_metric("load_one")->numeric,
                   9.75);
}

TEST(Gmond, UserMetricPropagates) {
  GmondRig rig(2);
  rig.start_all();
  rig.run_for_seconds(5);
  Metric user;
  user.name = "jobs_queued";
  user.set_uint(17);
  user.units = "jobs";
  rig.agents[0]->publish_user_metric(user);
  const Cluster snap =
      rig.agents[1]->state().snapshot(rig.clock.now_seconds());
  const Metric* m = snap.hosts.at("node-0").find_metric("jobs_queued");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, "17");
  EXPECT_EQ(m->source, "gmetric");
}

TEST(Gmond, SurvivesDatagramLoss) {
  GmondRig rig(4);
  rig.bus.set_loss_rate(0.2);
  rig.start_all();
  rig.run_for_seconds(300);  // soft-state refresh covers the losses
  for (auto& agent : rig.agents) {
    const Cluster snap = agent->state().snapshot(rig.clock.now_seconds());
    EXPECT_EQ(snap.hosts.size(), 4u);
    for (const auto& [name, host] : snap.hosts) {
      EXPECT_TRUE(host.is_up()) << name;
    }
  }
}

// ----------------------------------------------------------- pseudo gmond

TEST(PseudoGmond, ReportConformsToDialectAndSize) {
  sim::SimClock clock(sim::SimClock::kDefaultEpochUs);
  PseudoGmondConfig config;
  config.cluster_name = "pseudo-a";
  config.host_count = 25;
  PseudoGmond emulator(config, clock);

  auto parsed = parse_report(emulator.report_xml());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Cluster& c = parsed->clusters.front();
  EXPECT_EQ(c.name, "pseudo-a");
  EXPECT_EQ(c.hosts.size(), 25u);
  for (const auto& [name, host] : c.hosts) {
    (void)name;
    EXPECT_EQ(host.metrics.size(), standard_metrics().size());
    EXPECT_TRUE(host.is_up());
  }
  EXPECT_EQ(emulator.reports_served(), 1u);
}

TEST(PseudoGmond, GmondStartedHoldsAcrossReports) {
  // An emulated gmond starts once.  A GMOND_STARTED that followed the
  // clock would tell every poller that each host restarted since its last
  // poll.
  sim::SimClock clock(sim::SimClock::kDefaultEpochUs);
  PseudoGmondConfig config;
  config.host_count = 4;
  PseudoGmond emulator(config, clock);
  const auto first = parse_report(emulator.report_xml());
  clock.advance_seconds(15);
  const auto later = parse_report(emulator.report_xml());
  ASSERT_TRUE(first.ok() && later.ok());
  const Cluster& a = first->clusters.front();
  const Cluster& b = later->clusters.front();
  ASSERT_EQ(a.hosts.size(), 4u);
  for (const auto& [name, host] : a.hosts) {
    ASSERT_EQ(b.hosts.count(name), 1u) << name;
    EXPECT_EQ(b.hosts.at(name).gmond_started, host.gmond_started) << name;
  }
}

TEST(PseudoGmond, DeterministicAcrossRunsWithSameSeed) {
  sim::SimClock clock_a(0), clock_b(0);
  PseudoGmondConfig config;
  config.host_count = 5;
  config.seed = 99;
  PseudoGmond a(config, clock_a), b(config, clock_b);
  EXPECT_EQ(a.report_xml(), b.report_xml());
  EXPECT_EQ(a.report_xml(), b.report_xml());  // second draws also align
}

TEST(PseudoGmond, FreshValuesChangeBetweenPolls) {
  sim::SimClock clock(0);
  PseudoGmondConfig config;
  config.host_count = 3;
  PseudoGmond emulator(config, clock);
  EXPECT_NE(emulator.report_xml(), emulator.report_xml());
}

TEST(PseudoGmond, StableValuesWhenFreshDisabled) {
  sim::SimClock clock(0);
  PseudoGmondConfig config;
  config.host_count = 3;
  config.fresh_values_per_query = false;
  PseudoGmond emulator(config, clock);
  EXPECT_EQ(emulator.report_xml(), emulator.report_xml());
}

TEST(PseudoGmond, DownHostsAppearDownInSummaries) {
  sim::SimClock clock(0);
  PseudoGmondConfig config;
  config.host_count = 10;
  PseudoGmond emulator(config, clock);
  emulator.set_down_hosts(3);
  const SummaryInfo summary = emulator.snapshot().summarize();
  EXPECT_EQ(summary.hosts_up, 7u);
  EXPECT_EQ(summary.hosts_down, 3u);
}

TEST(PseudoGmond, ResizeGrowsAndShrinksDeterministically) {
  sim::SimClock clock(0);
  PseudoGmondConfig config;
  config.host_count = 4;
  config.fresh_values_per_query = false;
  PseudoGmond emulator(config, clock);
  const std::string at4 = emulator.report_xml();
  emulator.resize(8);
  EXPECT_EQ(emulator.host_count(), 8u);
  emulator.resize(4);
  EXPECT_EQ(emulator.report_xml(), at4) << "shrink restores identical hosts";
}

// -------------------------------------------------------------- catalogue

TEST(Metrics, CatalogueHasAboutThirtyMetrics) {
  // "Each node in the cluster has about 30 monitoring metrics."
  EXPECT_GE(standard_metrics().size(), 30u);
  EXPECT_LE(standard_metrics().size(), 40u);
}

TEST(Metrics, NamesAreUniqueAndRangesSane) {
  std::set<std::string_view> names;
  for (const MetricDef& def : standard_metrics()) {
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
    EXPECT_GT(def.tmax, 0u) << def.name;
    if (metric_type_is_numeric(def.type)) {
      EXPECT_LE(def.sim_lo, def.sim_hi) << def.name;
    } else {
      EXPECT_FALSE(def.string_value.empty()) << def.name;
    }
  }
}

TEST(Metrics, LookupByName) {
  ASSERT_NE(find_metric_def("load_one"), nullptr);
  EXPECT_EQ(find_metric_def("load_one")->slope, Slope::both);
  EXPECT_EQ(find_metric_def("cpu_num")->slope, Slope::zero);
  EXPECT_EQ(find_metric_def("not_a_metric"), nullptr);
  EXPECT_GT(numeric_metric_count(), 25u);
}

// ------------------------------------------------------------ proc sampler

class ProcSamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = dir_.path() / "fake_proc";
    std::filesystem::create_directories(root_ / "net");
    write("loadavg", "0.42 0.36 0.30 2/345 6789\n");
    write("meminfo",
          "MemTotal:       16000 kB\nMemFree:         8000 kB\n"
          "Buffers:          512 kB\nCached:          1024 kB\n"
          "SwapTotal:       4000 kB\nSwapFree:        3500 kB\n"
          "Shmem:            256 kB\n");
    write("stat", "cpu  100 10 50 800 40 0 0\ncpu0 100 10 50 800 40 0 0\n");
    write("uptime", "5000.12 4800.00\n");
    write("net/dev",
          "Inter-|   Receive                         |  Transmit\n"
          " face |bytes    packets errs drop fifo frame compressed "
          "multicast|bytes    packets errs drop fifo colls carrier "
          "compressed\n"
          "    lo: 999999    9999    0    0    0     0          0         0 "
          "999999    9999    0    0    0     0       0          0\n"
          "  eth0: 1000000    5000    0    0    0     0          0         0 "
          "2000000    6000    0    0    0     0       0          0\n");
  }

  void write(const std::string& rel, const std::string& content) {
    std::ofstream out(root_ / rel);
    out << content;
  }

  ganglia::testing::TestDir dir_;
  std::filesystem::path root_;
};

TEST_F(ProcSamplerTest, ReadsGaugesFromFixtureTree) {
  WallClock clock;
  ProcSampler sampler(clock, root_.string());
  ASSERT_TRUE(sampler.available());
  const auto metrics = sampler.sample();

  const auto find = [&](std::string_view name) -> const Metric* {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  ASSERT_NE(find("load_one"), nullptr);
  EXPECT_DOUBLE_EQ(find("load_one")->numeric, 0.42);
  EXPECT_DOUBLE_EQ(find("load_fifteen")->numeric, 0.30);
  EXPECT_DOUBLE_EQ(find("proc_run")->numeric, 2);
  EXPECT_DOUBLE_EQ(find("proc_total")->numeric, 345);
  EXPECT_DOUBLE_EQ(find("mem_total")->numeric, 16000);
  EXPECT_DOUBLE_EQ(find("swap_free")->numeric, 3500);
  EXPECT_NE(find("os_name"), nullptr);
  EXPECT_NE(find("cpu_num"), nullptr);
  // Rates need two samples.
  EXPECT_EQ(find("cpu_user"), nullptr);
  EXPECT_EQ(find("bytes_in"), nullptr);
}

TEST_F(ProcSamplerTest, SecondSampleYieldsCpuAndNetworkRates) {
  WallClock clock;
  ProcSampler sampler(clock, root_.string());
  (void)sampler.sample();
  // Advance the counters: +100 user jiffies of +200 total; +5 MB in.
  write("stat", "cpu  200 10 50 850 40 0 0\n");
  write("net/dev",
        "h1\nh2\n"
        "  eth0: 6000000   10000    0    0    0     0          0         0 "
        "2000000    6000    0    0    0     0       0          0\n");
  // Ensure measurable elapsed wall time for the rate divisor.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto metrics = sampler.sample();

  const auto find = [&](std::string_view name) -> const Metric* {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  ASSERT_NE(find("cpu_user"), nullptr);
  // +100 user of +150 total jiffies = 66.7%.
  EXPECT_NEAR(find("cpu_user")->numeric, 66.7, 0.5);
  ASSERT_NE(find("bytes_in"), nullptr);
  EXPECT_GT(find("bytes_in")->numeric, 0.0);
  ASSERT_NE(find("pkts_in"), nullptr);
}

TEST(ProcSampler, UnavailableOnMissingTree) {
  WallClock clock;
  ProcSampler sampler(clock, "/nonexistent/proc");
  EXPECT_FALSE(sampler.available());
  EXPECT_TRUE(sampler.sample().empty() ||
              !sampler.sample().empty());  // must not crash; may have uname
}

}  // namespace
}  // namespace ganglia::gmon
