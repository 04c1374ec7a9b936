// Daemon-mode integration tests: gmetad with live threads over real TCP on
// loopback, trust enforcement, and the soft-state JOIN protocol end-to-end.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "fed/codec.hpp"
#include "fed/session.hpp"
#include "gmetad/gmetad.hpp"
#include "gossip/delta.hpp"
#include "net/service_server.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "net/framing.hpp"
#include "net/inmem.hpp"
#include "net/tcp.hpp"
#include "presenter/viewer.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia {
namespace {

using gmetad::DataSourceConfig;
using gmetad::Gmetad;
using gmetad::GmetadConfig;
using net::ServiceServer;

/// A sync request from `sender` that holds no member: the smallest
/// request the gossip port answers, with every row the daemon holds.  It
/// carries no row, so the daemon learns no address of `sender`.
std::string probe_payload(const std::string& sender) {
  gossip::Message probe;
  probe.kind = gossip::MessageKind::sync;
  probe.sender = sender;
  return gossip::encode_message(probe);
}

/// The probe as the wire carries it: a Begin frame and one Chunk.
std::string gossip_probe(const std::string& sender) {
  std::string framed;
  gossip::put_digest_frames(framed, probe_payload(sender), 64u << 10);
  return framed;
}

/// Read and decode the framed message a gossip port answers with.
Result<gossip::Message> read_gossip_reply(net::Stream& stream) {
  net::FrameReader reader(stream, (64u << 10) + 64);
  auto begin = reader.next();
  if (!begin.ok()) return begin.error();
  auto payload =
      gossip::read_digest_frames(reader, *begin, gossip::kMaxDigestBytes);
  if (!payload.ok()) return payload.error();
  return gossip::decode_message(*payload);
}

/// Spin until `predicate` holds or ~deadline_ms elapses.
template <class Predicate>
bool eventually(Predicate predicate, int deadline_ms = 5000) {
  for (int waited = 0; waited < deadline_ms; waited += 50) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return predicate();
}

TEST(Daemon, TcpEndToEndPollDumpAndQuery) {
  WallClock clock;
  net::TcpTransport transport;

  gmon::PseudoGmondConfig cluster_config;
  cluster_config.cluster_name = "meteor";
  cluster_config.host_count = 6;
  gmon::PseudoGmond emulator(cluster_config, clock);
  ServiceServer gmond_port;
  ASSERT_TRUE(gmond_port.start(transport, "127.0.0.1:0", emulator.service()).ok());

  GmetadConfig config;
  config.grid_name = "tcp-grid";
  config.xml_bind = "127.0.0.1:0";
  config.interactive_bind = "127.0.0.1:0";
  config.archive_enabled = false;
  DataSourceConfig source;
  source.name = "meteor";
  source.addresses = {gmond_port.address()};
  source.poll_interval_s = 1;
  config.sources.push_back(source);

  Gmetad monitor(config, transport, clock);
  ASSERT_TRUE(monitor.start().ok());
  ASSERT_TRUE(monitor.running());

  // The poller thread lands data on its own.
  ASSERT_TRUE(eventually([&] {
    auto snapshot = monitor.store().get("meteor");
    return snapshot != nullptr && snapshot->reachable();
  }));

  // Dump port over real TCP.
  auto stream = transport.connect(monitor.xml_address(), 2 * kMicrosPerSecond);
  ASSERT_TRUE(stream.ok());
  auto dump = net::read_to_eof(**stream);
  ASSERT_TRUE(dump.ok());
  auto report = parse_report(*dump);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(report->grids.front().host_count(), 6u);

  // Interactive port: one query line, XML response, close.
  auto q = transport.connect(monitor.interactive_address(),
                             2 * kMicrosPerSecond);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE((*q)->write_all("/meteor/compute-0-2.local\n").ok());
  auto response = net::read_to_eof(**q);
  ASSERT_TRUE(response.ok());
  auto host_report = parse_report(*response);
  ASSERT_TRUE(host_report.ok());
  EXPECT_EQ(host_report->grids.front().host_count(), 1u);

  // The viewer works against the live daemon too.
  presenter::Viewer viewer(transport, monitor.xml_address(),
                           monitor.interactive_address(),
                           presenter::Strategy::n_level);
  auto meta = viewer.meta_view();
  ASSERT_TRUE(meta.ok()) << meta.error().to_string();
  EXPECT_EQ(meta->total.hosts_up + meta->total.hosts_down, 6u);

  monitor.stop();
  EXPECT_FALSE(monitor.running());
  gmond_port.stop();
}

// The federation listener over real TCP: a fed::Session dials the bound
// port, gets a full document, then a delta on the same persistent stream
// (stream reuse only exists on TCP — the in-mem fabric's service mode is
// one-exchange), and stop() closes the still-open connection.
TEST(Daemon, TcpFederationListenerServesPersistentDeltaSession) {
  WallClock clock;
  net::TcpTransport transport;

  gmon::PseudoGmondConfig cluster_config;
  cluster_config.cluster_name = "meteor";
  cluster_config.host_count = 6;
  gmon::PseudoGmond emulator(cluster_config, clock);
  ServiceServer gmond_port;
  ASSERT_TRUE(gmond_port.start(transport, "127.0.0.1:0", emulator.service()).ok());

  GmetadConfig config;
  config.grid_name = "fed-grid";
  config.xml_bind = "127.0.0.1:0";
  config.interactive_bind = "127.0.0.1:0";
  config.federation_bind = "127.0.0.1:0";
  config.archive_enabled = false;
  DataSourceConfig source;
  source.name = "meteor";
  source.addresses = {gmond_port.address()};
  source.poll_interval_s = 1;
  config.sources.push_back(source);

  Gmetad monitor(config, transport, clock);
  ASSERT_TRUE(monitor.start().ok());
  ASSERT_NE(monitor.federation_address(), config.federation_bind)
      << "listener should report the resolved port";

  ASSERT_TRUE(eventually([&] {
    auto snapshot = monitor.store().get("meteor");
    return snapshot != nullptr && snapshot->reachable();
  }));

  fed::SessionOptions session_options;
  session_options.address = monitor.federation_address();
  fed::Session session(session_options);

  // First poll: no base, so the publisher answers with a full document.
  auto first = session.poll(transport, 2 * kMicrosPerSecond);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_FALSE(first->delta);
  ASSERT_FALSE(first->report.grids.empty());
  EXPECT_EQ(first->report.grids.front().host_count(), 6u);

  // Keep-alive on the same stream, then an incremental answer.
  ASSERT_TRUE(session.ping(transport, 2 * kMicrosPerSecond).ok());
  auto second = session.poll(transport, 2 * kMicrosPerSecond);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_TRUE(second->delta);
  EXPECT_LT(second->bytes, first->bytes);
  EXPECT_EQ(second->report.grids.front().host_count(), 6u);

  const auto stats = monitor.federation_stats();
  EXPECT_GE(stats.polls, 2u);
  EXPECT_GE(stats.fulls, 1u);
  EXPECT_GE(stats.deltas, 1u);

  // stop() must close the live federation connection and return even
  // though the client never hung up.
  monitor.stop();
  EXPECT_FALSE(monitor.running());
  gmond_port.stop();
}

TEST(Daemon, UntrustedPeersAreRejected) {
  WallClock clock;
  net::TcpTransport transport;

  GmetadConfig config;
  config.grid_name = "fortress";
  config.xml_bind = "127.0.0.1:0";
  config.interactive_bind = "127.0.0.1:0";
  config.archive_enabled = false;
  // A child must explicitly trust its parent; 10.9.9.9 is not us.
  config.trusted_hosts = {"10.9.9.9"};

  Gmetad monitor(config, transport, clock);
  ASSERT_TRUE(monitor.start().ok());

  auto stream = transport.connect(monitor.xml_address(), 2 * kMicrosPerSecond);
  ASSERT_TRUE(stream.ok());
  auto dump = net::read_to_eof(**stream);
  // Connection is accepted then immediately closed without a report.
  ASSERT_TRUE(dump.ok() || dump.code() == Errc::closed);
  if (dump.ok()) {
    EXPECT_TRUE(dump->empty());
  }
  monitor.stop();
}

// The trust check runs at accept on the interactive and federation ports
// too: an untrusted peer's query or poll is closed unanswered.
TEST(Daemon, UntrustedPeersAreRefusedOnQueryAndFederationPorts) {
  WallClock clock;
  net::TcpTransport transport;

  GmetadConfig config;
  config.grid_name = "fortress";
  config.xml_bind = "127.0.0.1:0";
  config.interactive_bind = "127.0.0.1:0";
  config.federation_bind = "127.0.0.1:0";
  config.archive_enabled = false;
  config.trusted_hosts = {"10.9.9.9"};

  Gmetad monitor(config, transport, clock);
  ASSERT_TRUE(monitor.start().ok());

  auto query = transport.connect(monitor.interactive_address(),
                                 2 * kMicrosPerSecond);
  ASSERT_TRUE(query.ok());
  (void)(*query)->write_all("/\n");
  auto answer = net::read_to_eof(**query);
  EXPECT_TRUE(!answer.ok() || answer->empty());

  fed::SessionOptions session_options;
  session_options.address = monitor.federation_address();
  fed::Session session(session_options);
  EXPECT_FALSE(session.poll(transport, 2 * kMicrosPerSecond).ok());
  EXPECT_EQ(monitor.federation_stats().polls, 0u);
  monitor.stop();
}

TEST(Daemon, TrustedLoopbackIsServed) {
  WallClock clock;
  net::TcpTransport transport;

  GmetadConfig config;
  config.grid_name = "open";
  config.xml_bind = "127.0.0.1:0";
  config.interactive_bind = "127.0.0.1:0";
  config.archive_enabled = false;
  config.trusted_hosts = {"127.0.0.1"};

  Gmetad monitor(config, transport, clock);
  ASSERT_TRUE(monitor.start().ok());
  auto stream = transport.connect(monitor.xml_address(), 2 * kMicrosPerSecond);
  ASSERT_TRUE(stream.ok());
  auto dump = net::read_to_eof(**stream);
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("GANGLIA_XML"), std::string::npos);
  monitor.stop();
}

// Two daemons gossip through the ports they bound themselves: each learns
// the other's *bound* gossip address from its member row (a configured
// ":0" would be undialable), each holds the other ALIVE, and the port
// answers a framed sync request while refusing garbage.  Both tick every
// second, on the same second boundary, so their probes cross each other.
TEST(Daemon, TwoDaemonsGossipThroughTheirBoundPortsOverTcp) {
  WallClock clock;
  net::TcpTransport transport;
  const auto gossiping = [](std::string name, std::vector<std::string> seeds) {
    GmetadConfig config;
    config.grid_name = std::move(name);
    config.xml_bind = "127.0.0.1:0";
    config.interactive_bind = "127.0.0.1:0";
    config.gossip_bind = "127.0.0.1:0";
    config.gossip_seeds = std::move(seeds);
    config.gossip_interval_s = 1;
    config.archive_enabled = false;
    return config;
  };
  Gmetad alpha(gossiping("alpha", {}), transport, clock);
  ASSERT_TRUE(alpha.start().ok());
  const std::string alpha_gossip = alpha.membership()->member("alpha")->address;
  ASSERT_NE(alpha_gossip, "127.0.0.1:0");
  Gmetad beta(gossiping("beta", {alpha_gossip}), transport, clock);
  ASSERT_TRUE(beta.start().ok());

  // Each daemon holds the other ALIVE at its bound address and has heard
  // from it.
  const auto steady = [](const Gmetad& node, const Gmetad& peer) {
    const std::string& id = peer.config().grid_name;
    const auto row = node.membership()->member(id);
    return row && row->state == gossip::MemberState::alive &&
           row->address == peer.membership()->member(id)->address &&
           node.membership()->stats().digests_received > 0;
  };
  const auto describe = [](const Gmetad& node) {
    const gossip::AgentStats stats = node.membership()->stats();
    std::string out = node.config().grid_name + ": sends " +
                      std::to_string(stats.sends) + " failures " +
                      std::to_string(stats.send_failures) + " received " +
                      std::to_string(stats.digests_received) + " members";
    for (const auto& member : node.membership()->members()) {
      out += " " + member.id + "@" + member.address + "=" +
             gossip::member_state_name(member.state);
    }
    return out + "\n";
  };
  ASSERT_TRUE(eventually(
      [&] { return steady(alpha, beta) && steady(beta, alpha); }, 5000))
      << describe(alpha) << describe(beta);

  // One framed sync request, answered with alpha's whole table.
  auto probe = transport.connect(alpha_gossip, 2 * kMicrosPerSecond);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE((*probe)->write_all(gossip_probe("probe")).ok());
  auto reply = read_gossip_reply(**probe);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply->sender, "alpha");
  EXPECT_EQ(reply->rows.size(), 2u);

  // Garbage (a frame that is no digest) and an oversize digest are closed
  // without a reply.
  std::string garbage;
  net::put_frame(garbage, fed::kFramePoll, "junk");
  std::string oversize;
  std::string total;
  net::put_varint(total, gossip::kMaxDigestBytes + 1);
  net::put_frame(oversize, gossip::kFrameDigestBegin, total);
  for (const std::string& request : {garbage, oversize}) {
    auto stream = transport.connect(alpha_gossip, 2 * kMicrosPerSecond);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->write_all(request).ok());
    auto answer = net::read_to_eof(**stream);
    EXPECT_TRUE(!answer.ok() || answer->empty());
  }

  beta.stop();
  alpha.stop();
}

// ------------------------------------------------------- port isolation

/// Connections each port test holds open.
constexpr int kHeldPerPort = 1000;
constexpr TimeUs kIo = 2 * kMicrosPerSecond;

/// Thousands of loopback sockets need more than the usual soft fd limit.
void raise_fd_limit() {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0 && limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
  }
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// A daemon serving all four ports (dump, interactive, federation,
/// gossip) on `transport`, polling one small cluster served on the same
/// transport.
class FourPortDaemon {
 public:
  FourPortDaemon(net::Transport& transport, Clock& clock)
      : emulator_(cluster_config(), clock) {
    EXPECT_TRUE(
        gmond_port_.start(transport, "127.0.0.1:0", emulator_.service()).ok());
    GmetadConfig config;
    config.grid_name = "ports";
    config.xml_bind = "127.0.0.1:0";
    config.interactive_bind = "127.0.0.1:0";
    config.federation_bind = "127.0.0.1:0";
    config.gossip_bind = "127.0.0.1:0";
    config.join_key = "sekrit";
    config.archive_enabled = false;
    DataSourceConfig source;
    source.name = "meteor";
    source.addresses = {gmond_port_.address()};
    source.poll_interval_s = 1;
    config.sources.push_back(source);
    monitor_ = std::make_unique<Gmetad>(config, transport, clock);
  }

  Gmetad& monitor() { return *monitor_; }
  std::string gossip_address() const {
    return monitor_->membership()->member("ports")->address;
  }

 private:
  static gmon::PseudoGmondConfig cluster_config() {
    gmon::PseudoGmondConfig config;
    config.cluster_name = "meteor";
    config.host_count = 4;
    return config;
  }

  gmon::PseudoGmond emulator_;
  ServiceServer gmond_port_;
  std::unique_ptr<Gmetad> monitor_;
};

/// Run `op`, expecting it to finish within a second.
template <class Op>
void within_a_second(const char* what, Op op) {
  const auto start = std::chrono::steady_clock::now();
  op();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(took.count(), 1000) << what << " took " << took.count() << " ms";
}

/// Hold kHeldPerPort connections on every port — half idle, half holding
/// a partial request — and check that a dump, a query, a JOIN, a fresh
/// federation session's full and delta polls, and a gossip exchange all
/// still finish within a second.
void expect_ports_isolated(net::Transport& transport) {
  raise_fd_limit();
  WallClock clock;
  FourPortDaemon daemon(transport, clock);
  Gmetad& monitor = daemon.monitor();
  ASSERT_TRUE(monitor.start().ok());
  ASSERT_TRUE(eventually([&] {
    auto snapshot = monitor.store().get("meteor");
    return snapshot != nullptr && snapshot->reachable();
  }));

  std::string half_frame;
  net::put_frame(half_frame, fed::kFramePoll, std::string(64, 'x'));
  half_frame.resize(half_frame.size() / 2);
  // A Begin frame and half of its one Chunk.
  std::string half_digest = gossip_probe("idle");
  half_digest.resize(half_digest.size() - probe_payload("idle").size() / 2);
  const std::pair<std::string, std::string> ports[] = {
      {monitor.xml_address(), "/meteor/compute"},
      {monitor.interactive_address(), "/meteor/compute"},
      {monitor.federation_address(), half_frame},
      {daemon.gossip_address(), half_digest},
  };
  std::vector<std::unique_ptr<net::Stream>> held;
  held.reserve(4 * kHeldPerPort);
  for (const auto& [address, partial] : ports) {
    for (int i = 0; i < kHeldPerPort; ++i) {
      auto stream = transport.connect(address, kIo);
      ASSERT_TRUE(stream.ok()) << address << ": " << stream.error().to_string();
      // The dump port answers on accept and may already have closed.
      if (i % 2 == 1) (void)(*stream)->write_all(partial);
      held.push_back(std::move(*stream));
    }
  }

  within_a_second("dump", [&] {
    auto stream = transport.connect(monitor.xml_address(), kIo);
    ASSERT_TRUE(stream.ok());
    auto dump = net::read_to_eof(**stream);
    ASSERT_TRUE(dump.ok()) << dump.error().to_string();
    EXPECT_NE(dump->find("meteor"), std::string::npos);
  });
  within_a_second("interactive query", [&] {
    auto stream = transport.connect(monitor.interactive_address(), kIo);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->write_all("/meteor\n").ok());
    auto response = net::read_to_eof(**stream);
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    auto report = parse_report(*response);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_EQ(report->grids.front().host_count(), 4u);
  });
  within_a_second("JOIN", [&] {
    GmetadConfig config;
    config.grid_name = "joiner";
    config.xml_bind = "joiner:8651";
    config.authority = "gmetad://joiner:8651/";
    config.join_key = "sekrit";
    config.archive_enabled = false;
    Gmetad child(config, transport, clock);
    const Status joined = child.send_join(monitor.interactive_address());
    ASSERT_TRUE(joined.ok()) << joined.to_string();
    EXPECT_EQ(monitor.joins().size(), 1u);
  });
  within_a_second("federation full + delta poll", [&] {
    fed::SessionOptions options;
    options.address = monitor.federation_address();
    fed::Session session(options);
    auto full = session.poll(transport, kIo);
    ASSERT_TRUE(full.ok()) << full.error().to_string();
    EXPECT_FALSE(full->delta);
    auto delta = session.poll(transport, kIo);
    ASSERT_TRUE(delta.ok()) << delta.error().to_string();
    EXPECT_TRUE(delta->delta);
  });
  within_a_second("gossip exchange", [&] {
    auto stream = transport.connect(daemon.gossip_address(), kIo);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->write_all(gossip_probe("probe")).ok());
    auto reply = read_gossip_reply(**stream);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_EQ(reply->sender, "ports");
  });

  monitor.stop();
}

TEST(PortIsolation, IdleAndPartialPeersStallNoPortOverTcp) {
  net::TcpTransport transport;
  expect_ports_isolated(transport);
}

TEST(PortIsolation, IdleAndPartialPeersStallNoPortOverInMem) {
  net::InMemTransport transport;
  expect_ports_isolated(transport);
}

/// A daemon serving all four ports keeps its thread count with
/// kHeldPerPort idle federation connections open.
void expect_fixed_thread_count(net::Transport& transport) {
  raise_fd_limit();
  WallClock clock;
  FourPortDaemon daemon(transport, clock);
  Gmetad& monitor = daemon.monitor();
  ASSERT_TRUE(monitor.start().ok());
  const std::size_t idle_threads = thread_count();

  std::vector<std::unique_ptr<net::Stream>> held;
  held.reserve(kHeldPerPort);
  for (int i = 0; i < kHeldPerPort; ++i) {
    auto stream = transport.connect(monitor.federation_address(), kIo);
    ASSERT_TRUE(stream.ok()) << stream.error().to_string();
    held.push_back(std::move(*stream));
  }
  // A session on a later connection answering means every earlier
  // connection has been accepted.
  fed::SessionOptions options;
  options.address = monitor.federation_address();
  fed::Session session(options);
  ASSERT_TRUE(session.poll(transport, kIo).ok());

  EXPECT_EQ(thread_count(), idle_threads);
  monitor.stop();
}

TEST(ThreadCount, FixedWithThousandIdleFederationConnectionsOverTcp) {
  net::TcpTransport transport;
  expect_fixed_thread_count(transport);
}

TEST(ThreadCount, FixedWithThousandIdleFederationConnectionsOverInMem) {
  net::InMemTransport transport;
  expect_fixed_thread_count(transport);
}

// ------------------------------------------------------------------- join

TEST(Join, ChildJoinsParentDynamically) {
  sim::SimClock clock;
  net::InMemTransport transport;

  // Child gmetad with one cluster.
  gmon::PseudoGmondConfig cluster_config;
  cluster_config.cluster_name = "attic-alpha";
  cluster_config.host_count = 4;
  gmon::PseudoGmond emulator(cluster_config, clock);
  transport.register_service("attic-alpha:8649", emulator.service());

  GmetadConfig child_config;
  child_config.grid_name = "attic";
  child_config.authority = "gmetad://attic:8651/";
  child_config.xml_bind = "attic:8651";
  child_config.join_key = "sekrit";
  child_config.archive_enabled = false;
  DataSourceConfig ds;
  ds.name = "attic-alpha";
  ds.addresses = {"attic-alpha:8649"};
  child_config.sources.push_back(ds);
  Gmetad child(child_config, transport, clock);
  child.poll_once();
  transport.register_service("attic:8651", child.dump_service());

  // Parent with NO configured children.
  GmetadConfig parent_config;
  parent_config.grid_name = "sdsc";
  parent_config.join_key = "sekrit";
  parent_config.join_expiry_s = 60;
  parent_config.archive_enabled = false;
  Gmetad parent(parent_config, transport, clock);
  transport.register_service("sdsc:8652", parent.interactive_service());

  EXPECT_TRUE(parent.sources().empty());

  // Child announces itself; parent should adopt it as a data source.
  ASSERT_TRUE(child.send_join("sdsc:8652").ok());
  ASSERT_EQ(parent.sources().size(), 1u);
  EXPECT_EQ(parent.sources()[0]->name(), "attic");
  EXPECT_EQ(parent.joins().size(), 1u);

  parent.poll_once();
  auto snapshot = parent.store().get("attic");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->is_grid());
  EXPECT_EQ(snapshot->summary().hosts_up, 4u);

  // Keep joining: the child stays.
  clock.advance_seconds(30);
  ASSERT_TRUE(child.send_join("sdsc:8652").ok());
  clock.advance_seconds(30);
  parent.poll_once();
  EXPECT_EQ(parent.sources().size(), 1u);

  // Joins cease: after expiry the child is pruned from tree and store.
  clock.advance_seconds(120);
  parent.poll_once();
  EXPECT_TRUE(parent.sources().empty());
  EXPECT_EQ(parent.store().get("attic"), nullptr);
}

TEST(Join, WrongKeyRejectedByParent) {
  sim::SimClock clock;
  net::InMemTransport transport;

  GmetadConfig parent_config;
  parent_config.grid_name = "sdsc";
  parent_config.join_key = "correct";
  parent_config.archive_enabled = false;
  Gmetad parent(parent_config, transport, clock);
  transport.register_service("sdsc:8652", parent.interactive_service());

  GmetadConfig child_config;
  child_config.grid_name = "evil";
  child_config.join_key = "WRONG";
  child_config.xml_bind = "evil:8651";
  child_config.archive_enabled = false;
  Gmetad child(child_config, transport, clock);

  EXPECT_FALSE(child.send_join("sdsc:8652").ok());
  EXPECT_TRUE(parent.sources().empty());
  EXPECT_EQ(parent.joins().size(), 0u);
}

TEST(Join, DisabledWithoutKey) {
  sim::SimClock clock;
  net::InMemTransport transport;
  GmetadConfig config;
  config.grid_name = "nokey";
  config.archive_enabled = false;
  Gmetad monitor(config, transport, clock);
  EXPECT_FALSE(monitor.send_join("anywhere:1").ok());

  // Parent side refuses JOIN lines when no key is configured.
  auto response = monitor.handle_interactive("JOIN a b:1 c 0123");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Errc::refused);
}

}  // namespace
}  // namespace ganglia
