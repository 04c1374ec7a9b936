// Gmetad-level tests of the gossip membership integration:
//
//  * topology discovery — an aggregator with `gossip_aggregate on` adopts a
//    data source for every ALIVE member advertising parent=<its grid>,
//    replacing static data_source lines;
//  * automatic failover — a `standby_for` node promotes when the primary is
//    declared DEAD, serves the orphaned subtree, and demotes exactly once
//    when the primary recovers (no flapping across the SUSPECT window),
//    and never on a forged verdict from an untrusted peer;
//  * the join-registry prune racing concurrent re-joins (satellite of the
//    same soft-state membership story).
//
// Everything runs deterministically: one SimClock, one InMemTransport in
// service mode, gossip_tick() driven by hand one simulated second at a
// time.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gmetad/gmetad.hpp"
#include "gmetad/join.hpp"
#include "gossip/delta.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::gmetad {
namespace {

// A gmon leaf the "attic" child grid polls, so the subtree carries real
// content all the way up to whoever aggregates attic.
net::ServiceFn leaf_service() {
  return [](std::string_view) -> Result<std::string> {
    return std::string(
        "<GANGLIA_XML VERSION=\"1\" SOURCE=\"gmond\">"
        "<CLUSTER NAME=\"leafcluster\" LOCALTIME=\"1\">"
        "<HOST NAME=\"leaf0\" IP=\"10.0.0.1\" REPORTED=\"1\">"
        "<METRIC NAME=\"load_one\" VAL=\"0.5\" TYPE=\"float\" UNITS=\"\" "
        "TN=\"1\" TMAX=\"90\" SOURCE=\"gmond\"/>"
        "</HOST></CLUSTER></GANGLIA_XML>");
  };
}

GmetadConfig parse(const std::string& text) {
  auto config = parse_config(text);
  EXPECT_TRUE(config.ok()) << (config.ok() ? "" : config.error().message);
  return *config;
}

// Three federated gmetads on one fabric: a child grid ("attic") naming
// "prime" as its aggregator, the primary itself, and a standby covering
// the primary.  Timers are tight (1 s rounds, t_fail 5 s, t_cleanup 5 s):
// a probe suspects the dead primary in the first round or two, DEAD follows
// t_fail + t_cleanup later, and the acceptance bound
// t_fail + t_cleanup + 2*interval is 12 rounds.
class FailoverTest : public ::testing::Test {
 protected:
  static constexpr int kPromoteBound = 5 + 5 + 2;  // t_fail+t_cleanup+2*iv

  FailoverTest() {
    fabric_.register_service("leaf:8649", leaf_service());

    attic_ = std::make_unique<Gmetad>(parse(R"(
      gridname "attic"
      archive off
      data_source "leafcluster" leaf:8649
      xml_bind attic:8651
      interactive_bind attic:8652
      federation_bind attic:8655
      gossip_bind attic:8654
      gossip_seed prime:8654
      gossip_interval 1
      gossip_fanout 2
      t_fail 5
      t_cleanup 5
      gossip_parent "prime"
    )"), fabric_, clock_);

    prime_ = std::make_unique<Gmetad>(parse(R"(
      gridname "prime"
      mode one-level
      archive off
      xml_bind prime:8651
      interactive_bind prime:8652
      federation_bind prime:8655
      gossip_bind prime:8654
      gossip_interval 1
      gossip_fanout 2
      t_fail 5
      t_cleanup 5
      gossip_aggregate on
    )"), fabric_, clock_);

    stand_ = std::make_unique<Gmetad>(parse(R"(
      gridname "stand"
      mode one-level
      archive off
      xml_bind stand:8651
      interactive_bind stand:8652
      federation_bind stand:8655
      gossip_bind stand:8654
      gossip_seed prime:8654
      gossip_interval 1
      gossip_fanout 2
      t_fail 5
      t_cleanup 5
      standby_for "prime"
    )"), fabric_, clock_);

    plug_in(*attic_);
    plug_in(*prime_);
    plug_in(*stand_);
    attic_->poll_once();  // the child's own store carries the leaf cluster
  }

  void plug_in(Gmetad& node) {
    fabric_.register_service(node.config().gossip_bind,
                             node.membership()->service());
    fabric_.register_service(node.config().xml_bind, node.dump_service());
    fabric_.register_service(node.config().federation_bind,
                             node.federation_service());
  }

  /// Stop failure: the node's endpoints vanish and it stops ticking.
  void kill(Gmetad& node) {
    fabric_.unregister_service(node.config().gossip_bind);
    fabric_.unregister_service(node.config().xml_bind);
    fabric_.unregister_service(node.config().federation_bind);
    down_.push_back(&node);
  }

  /// The process comes back with its state intact (same Agent resumes
  /// ticking, and refutes the doubts peers hold about it).
  void revive(Gmetad& node) {
    plug_in(node);
    down_.erase(std::remove(down_.begin(), down_.end(), &node), down_.end());
  }

  bool is_up(Gmetad& node) const {
    return std::find(down_.begin(), down_.end(), &node) == down_.end();
  }

  /// One simulated second: every live node runs a gossip round.
  void round() {
    clock_.advance_us(kMicrosPerSecond);
    for (Gmetad* node : {attic_.get(), prime_.get(), stand_.get()}) {
      if (is_up(*node)) node->gossip_tick();
    }
  }

  /// Rounds until `done` holds; -1 if max_rounds passed without it.
  int rounds_until(const std::function<bool()>& done, int max_rounds) {
    for (int n = 0; n <= max_rounds; ++n) {
      if (done()) return n;
      round();
    }
    return -1;
  }

  static bool has_source(const Gmetad& node, const std::string& name) {
    const auto sources = node.sources();
    return std::any_of(sources.begin(), sources.end(),
                       [&](const DataSource* ds) { return ds->name() == name; });
  }

  sim::SimClock clock_;
  net::InMemTransport fabric_;
  std::unique_ptr<Gmetad> attic_;
  std::unique_ptr<Gmetad> prime_;
  std::unique_ptr<Gmetad> stand_;
  std::vector<Gmetad*> down_;
};

TEST_F(FailoverTest, TopologyDiscoveryAdoptsAdvertisedChildren) {
  // No data_source line anywhere mentions attic; prime learns it from the
  // member table (parent=prime) within a few gossip rounds.
  ASSERT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);

  // The adopted source points at attic's advertised XML endpoint, and a
  // poll round pulls the child subtree into prime's tree.
  const auto results = prime_->poll_once();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].source, "attic");
  const std::string dump = prime_->dump_xml();
  EXPECT_NE(dump.find("attic"), std::string::npos);
  EXPECT_NE(dump.find("leafcluster"), std::string::npos);

  // The standby watches but does not aggregate while the primary lives.
  EXPECT_TRUE(stand_->sources().empty());
  EXPECT_EQ(stand_->failover()->promotions(), 0u);
}

TEST_F(FailoverTest, StandbyPromotesOnDeathAndDemotesOnceOnRecovery) {
  ASSERT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);

  // Primary dies.  The standby must declare it DEAD and adopt its children
  // within t_fail + t_cleanup + 2 gossip intervals.
  kill(*prime_);
  ASSERT_GE(rounds_until(
                [&] {
                  return stand_->failover()->promoted("prime") &&
                         has_source(*stand_, "attic");
                },
                kPromoteBound),
            0);
  EXPECT_EQ(stand_->failover()->promotions(), 1u);

  // The standby actually serves the orphaned subtree.
  const auto results = stand_->poll_once();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_NE(stand_->dump_xml().find("leafcluster"), std::string::npos);

  // No flapping while the primary stays dead.
  for (int n = 0; n < 6; ++n) round();
  EXPECT_EQ(stand_->failover()->promotions(), 1u);
  EXPECT_EQ(stand_->failover()->demotions(), 0u);

  // Recovery: the primary refutes the DEAD row peers hold with a fresh
  // incarnation, so the table flips back to ALIVE and the standby demotes —
  // exactly once — and hands the subtree back.
  revive(*prime_);
  ASSERT_GE(rounds_until(
                [&] {
                  return !stand_->failover()->promoted("prime") &&
                         stand_->sources().empty();
                },
                10),
            0);
  EXPECT_EQ(stand_->failover()->promotions(), 1u);
  EXPECT_EQ(stand_->failover()->demotions(), 1u);
  EXPECT_EQ(stand_->dump_xml().find("leafcluster"), std::string::npos)
      << "standby must drop the adopted subtree after handing it back";

  // ... and the recovered primary re-adopts its children.
  EXPECT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);
  for (int n = 0; n < 10; ++n) round();
  EXPECT_EQ(stand_->failover()->promotions(), 1u) << "no post-recovery flap";
}

TEST_F(FailoverTest, SuspectWindowAloneNeverPromotes) {
  ASSERT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);

  // An outage longer than t_fail but shorter than t_fail + t_cleanup only
  // reaches SUSPECT — the standby must not move.
  kill(*prime_);
  for (int n = 0; n < 7; ++n) round();
  const auto entry = stand_->membership()->member("prime");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, gossip::MemberState::suspect);
  EXPECT_EQ(stand_->failover()->promotions(), 0u);

  revive(*prime_);
  ASSERT_GE(rounds_until(
                [&] {
                  const auto e = stand_->membership()->member("prime");
                  return e && e->state == gossip::MemberState::alive;
                },
                10),
            0);
  for (int n = 0; n < 10; ++n) round();
  EXPECT_EQ(stand_->failover()->promotions(), 0u);
  EXPECT_TRUE(stand_->sources().empty());
}

TEST_F(FailoverTest, ForgedVerdictsAboutALivePrimaryNeverPromote) {
  // The gossip port admits untrusted peers.  A forged DEAD row, or a doubt
  // too high to refute, is refused whole; the highest doubt that is taken,
  // the primary refutes.  Either way the standby never moves.
  ASSERT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);
  gossip::Agent& standby = *stand_->membership();
  gossip::Message lie;
  lie.sender = "evil";
  lie.rows.push_back(*standby.member("prime"));
  const auto tell = [&](gossip::MemberState state, std::uint64_t incarnation) {
    lie.rows[0].state = state;
    lie.rows[0].incarnation = incarnation;
    return standby.handle_digest_payload(gossip::encode_message(lie)).ok();
  };
  EXPECT_FALSE(tell(gossip::MemberState::dead, lie.rows[0].incarnation));
  EXPECT_FALSE(tell(gossip::MemberState::suspect, ~std::uint64_t{0}));
  EXPECT_EQ(standby.member("prime")->state, gossip::MemberState::alive);
  ASSERT_TRUE(tell(gossip::MemberState::suspect, gossip::kMaxIncarnation - 1));
  EXPECT_EQ(standby.member("prime")->state, gossip::MemberState::suspect);

  for (int n = 0; n < 2 * kPromoteBound; ++n) round();
  const auto prime = standby.member("prime");
  ASSERT_TRUE(prime.has_value());
  EXPECT_EQ(prime->state, gossip::MemberState::alive);
  EXPECT_EQ(prime->incarnation, gossip::kMaxIncarnation);
  EXPECT_EQ(stand_->failover()->promotions(), 0u);
  EXPECT_TRUE(stand_->sources().empty());
}

// Membership digests ride the open federation poll stream once a delta
// poll session is live: prime adopts attic through gossip (fed= metadata
// carried in the digest), polls it incrementally, and from then on its
// gossip exchanges with attic go through DataSource::piggyback_digest
// instead of dialling fresh gossip connections.
TEST_F(FailoverTest, DigestsPiggybackOnFederationPollSessions) {
  ASSERT_GE(rounds_until([&] { return has_source(*prime_, "attic"); }, 10), 0);

  // The adopted source carries attic's advertised delta endpoint; one
  // successful poll through it brings the session live.
  const DataSource* attic_src = nullptr;
  for (const DataSource* ds : prime_->sources()) {
    if (ds->name() == "attic") attic_src = ds;
  }
  ASSERT_NE(attic_src, nullptr);
  EXPECT_EQ(attic_src->federation_address(), "attic:8655");
  const auto results = prime_->poll_once();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;

  // Gossip rounds now ride the poll channel: the agent's exchanges with
  // attic are carried, and the source counts them.
  const auto before = prime_->membership()->stats();
  for (int n = 0; n < 6; ++n) round();
  const auto after = prime_->membership()->stats();
  EXPECT_GT(after.piggyback_exchanges, before.piggyback_exchanges);
  EXPECT_GT(attic_src->piggyback_digests(), 0u);

  // Membership itself stays healthy over the piggybacked channel.
  const auto entry = prime_->membership()->member("attic");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, gossip::MemberState::alive);

  // When the peer dies the carrier channel breaks with it; the agent falls
  // through to direct dials, and failure detection converges as usual.
  kill(*attic_);
  ASSERT_GE(rounds_until(
                [&] {
                  const auto e = prime_->membership()->member("attic");
                  return e && e->state != gossip::MemberState::alive;
                },
                kPromoteBound),
            0);
}

// ---------------------------------------------------- join prune vs re-join

// Joiner threads hammer the interactive port with JOIN refreshes while the
// poll loop advances past the expiry horizon and prunes.  The registry and
// the source table are updated under one lock, so however the interleaving
// lands, a registered child always has exactly one data source (under
// TSan this also proves the compound operations are race-free).
TEST(JoinRace, PruneRacingConcurrentRejoinsKeepsRegistryAndSourcesInSync) {
  sim::SimClock clock;
  net::InMemTransport fabric;
  Gmetad monitor(parse(R"(
    gridname "root"
    archive off
    join_key "sekrit"
    join_expiry 1
  )"), fabric, clock);

  const std::vector<std::string> lines = {
      format_join_line({"c1", "c1:8651", "http://c1/"}, "sekrit"),
      format_join_line({"c2", "c2:8651", "http://c2/"}, "sekrit"),
  };

  std::vector<std::thread> joiners;
  for (const std::string& line : lines) {
    joiners.emplace_back([&monitor, line] {
      for (int n = 0; n < 300; ++n) {
        const auto reply = monitor.handle_interactive(line);
        EXPECT_TRUE(reply.ok()) << reply.error().message;
      }
    });
  }
  // Each advance jumps past join_expiry, so every poll's prune pass races
  // the refreshes arriving from the joiner threads.
  for (int n = 0; n < 100; ++n) {
    clock.advance_us(2 * kMicrosPerSecond);
    monitor.poll_once();
  }
  for (std::thread& joiner : joiners) joiner.join();

  // Quiesce: one final refresh of both children, no clock movement.
  for (const std::string& line : lines) {
    ASSERT_TRUE(monitor.handle_interactive(line).ok());
  }
  const auto children = monitor.joins().children();
  ASSERT_EQ(children.size(), 2u);
  const auto sources = monitor.sources();
  for (const auto& child : children) {
    const auto matches = std::count_if(
        sources.begin(), sources.end(), [&](const DataSource* ds) {
          return ds->name() == child.request.name;
        });
    EXPECT_EQ(matches, 1)
        << "child '" << child.request.name
        << "' must have exactly one data source, found " << matches;
  }
  EXPECT_EQ(sources.size(), children.size());
}

}  // namespace
}  // namespace ganglia::gmetad
