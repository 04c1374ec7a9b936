// Gossip membership: codec, merge semantics, and deterministic group
// simulations (convergence, failure detection under loss, leaves,
// partitions, churn) over the in-memory fabric.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gossip/agent.hpp"
#include "gossip/delta.hpp"
#include "gossip/member_table.hpp"
#include "gossip/message.hpp"
#include "gossip_sim_util.hpp"
#include "net/inmem.hpp"
#include "sim/failure_schedule.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::gossip {
namespace {

// ------------------------------------------------------------------- codec

TEST(GossipCodec, RoundTrips) {
  std::vector<MemberEntry> entries;
  MemberEntry a;
  a.id = "core";
  a.address = "core:8654";
  a.incarnation = 3;
  a.heartbeat = 17;
  a.meta = {{"source", "core"}, {"xml", "core:8651"}, {"parent", "root"}};
  entries.push_back(a);
  MemberEntry gone;
  gone.id = "old";
  gone.address = "old:8654";
  gone.heartbeat = 9;
  gone.state = MemberState::left;
  entries.push_back(gone);

  const std::string wire = encode_digest("core", entries);
  auto decoded = decode_digest(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->sender_id, "core");
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].id, "core");
  EXPECT_EQ(decoded->entries[0].incarnation, 3u);
  EXPECT_EQ(decoded->entries[0].heartbeat, 17u);
  EXPECT_EQ(decoded->entries[0].state, MemberState::alive);
  EXPECT_EQ(decoded->entries[0].meta, a.meta);
  EXPECT_EQ(decoded->entries[1].state, MemberState::left);
  EXPECT_TRUE(decoded->entries[1].meta.empty());
}

TEST(GossipCodec, LocalVerdictsAreNeverEncoded) {
  MemberEntry suspect;
  suspect.id = "s";
  suspect.address = "s:1";
  suspect.state = MemberState::suspect;
  MemberEntry dead = suspect;
  dead.id = "d";
  dead.state = MemberState::dead;
  const std::string wire = encode_digest("me", {suspect, dead});
  auto decoded = decode_digest(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->entries.empty())
      << "SUSPECT/DEAD are local judgements; forwarding them would let one "
         "slow link convict a member everywhere";
}

// The gossip port's request boundary, in both wire formats, found exactly
// wherever the bytes split — with the scan resuming instead of restarting.
TEST(GossipCodec, RequestEndFindsEveryDigestAtAnySplit) {
  sim::SimClock clock;
  net::InMemTransport fabric;
  AgentOptions opts;
  opts.id = "gm0";
  opts.address = "gm0:8654";
  opts.max_frame = 8;  // many small chunks
  Agent agent(std::move(opts), fabric, clock);

  MemberEntry entry;
  entry.id = "gm1";
  entry.address = "gm1:8654";
  std::string framed;
  put_digest_frames(framed, std::string(50, 'p'), 8);
  for (const std::string& request : {encode_digest("gm1", {entry}), framed}) {
    const std::string wire = request + "trailing";
    for (std::size_t split = 0; split < request.size(); ++split) {
      net::ScanState scan;
      EXPECT_EQ(agent.request_end(std::string_view(wire).substr(0, split), scan)
                    .state,
                net::RequestEnd::State::need_more);
      const net::RequestEnd end = agent.request_end(wire, scan);
      ASSERT_EQ(end.state, net::RequestEnd::State::complete) << split;
      EXPECT_EQ(end.consumed, request.size()) << split;
    }
  }
  // A Begin frame claiming more than the digest cap is refused at once.
  std::string total;
  net::put_varint(total, kMaxDigestBytes + 1);
  std::string oversize;
  net::put_frame(oversize, kFrameDigestBegin, total);
  net::ScanState scan;
  EXPECT_EQ(agent.request_end(oversize, scan).state,
            net::RequestEnd::State::malformed);
}

TEST(GossipCodec, RejectsMalformedDigests) {
  EXPECT_FALSE(decode_digest("").ok());
  EXPECT_FALSE(decode_digest("GOSSIP1 me\n").ok()) << "missing END";
  EXPECT_FALSE(decode_digest("M a a:1 0 1 A -\nEND\n").ok()) << "no header";
  EXPECT_FALSE(decode_digest("GOSSIP1 me\nM a a:1 0 1 X -\nEND\n").ok())
      << "state must be A or L";
  EXPECT_FALSE(decode_digest("GOSSIP1 me\nM a a:1 zero 1 A -\nEND\n").ok());
  EXPECT_FALSE(decode_digest("GOSSIP1 me\nM a a:1 0 1 A =v\nEND\n").ok())
      << "meta pair needs a key";
  EXPECT_FALSE(decode_digest("GOSSIP1 me\nM a a:1 0 1 A\nEND\n").ok())
      << "short row";
  const std::string long_line(kMaxDigestLine + 1, 'x');
  EXPECT_FALSE(decode_digest("GOSSIP1 me\n" + long_line + "\nEND\n").ok());
}

// ------------------------------------------------------------ merge rules

std::vector<MemberEvent> merge_one(MemberTable& table, MemberEntry entry,
                                   TimeUs now) {
  std::vector<MemberEvent> events;
  table.merge({std::move(entry)}, now, events);
  return events;
}

MemberEntry peer(const std::string& id, std::uint64_t inc, std::uint64_t hb,
                 MemberState state = MemberState::alive) {
  MemberEntry entry;
  entry.id = id;
  entry.address = id + ":8654";
  entry.incarnation = inc;
  entry.heartbeat = hb;
  entry.state = state;
  return entry;
}

TEST(MemberTable, FreshnessOrderAndEvents) {
  MemberTable table("me", "me:8654", 0);
  auto events = merge_one(table, peer("b", 0, 5), 10);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::joined);

  // Stale heartbeat: ignored, receipt time NOT refreshed.
  events = merge_one(table, peer("b", 0, 3), 20);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(table.find("b")->local_time_us, 10);

  // Progress refreshes; higher incarnation beats higher heartbeat.
  events = merge_one(table, peer("b", 0, 6), 30);
  EXPECT_EQ(table.find("b")->local_time_us, 30);
  events = merge_one(table, peer("b", 1, 1), 40);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(table.find("b")->incarnation, 1u);
  EXPECT_EQ(table.find("b")->heartbeat, 1u);
}

TEST(MemberTable, SuspectRecoversOnHeartbeatProgress) {
  MemberTable table("me", "me:8654", 0);
  merge_one(table, peer("b", 0, 5), 0);
  std::vector<MemberEvent> events;
  table.advance(6 * kMicrosPerSecond, 5 * kMicrosPerSecond,
                5 * kMicrosPerSecond, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::suspected);

  events = merge_one(table, peer("b", 0, 6), 7 * kMicrosPerSecond);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::recovered);
  EXPECT_EQ(table.find("b")->state, MemberState::alive);
}

TEST(MemberTable, AdvanceWalksTheStateMachine) {
  const TimeUs kSec = kMicrosPerSecond;
  MemberTable table("me", "me:8654", 0);
  merge_one(table, peer("b", 0, 5), 0);
  std::vector<MemberEvent> events;

  table.advance(4 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b")->state, MemberState::alive);
  table.advance(5 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b")->state, MemberState::suspect);
  table.advance(10 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b")->state, MemberState::dead);
  // Post-mortem retention: one more t_cleanup, then dropped.
  table.advance(14 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_NE(table.find("b"), nullptr);
  table.advance(15 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b"), nullptr);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::suspected);
  EXPECT_EQ(events[1].kind, MemberEvent::Kind::died);
  EXPECT_EQ(events[2].kind, MemberEvent::Kind::removed);
}

TEST(MemberTable, LeftTombstoneOverridesAliveAndExpires) {
  const TimeUs kSec = kMicrosPerSecond;
  MemberTable table("me", "me:8654", 0);
  merge_one(table, peer("b", 2, 50), 0);

  // Equal incarnation suffices: leaving is a choice, not a failure.
  auto events = merge_one(table, peer("b", 2, 51, MemberState::left), kSec);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::left);

  // Echoes of the pre-leave life must not resurrect the row.
  events = merge_one(table, peer("b", 2, 60), 2 * kSec);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(table.find("b")->state, MemberState::left);

  // A true rejoin carries a fresh incarnation.
  events = merge_one(table, peer("b", 3, 1), 3 * kSec);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::joined);
  EXPECT_EQ(table.find("b")->state, MemberState::alive);

  // And tombstones eventually expire.
  merge_one(table, peer("b", 3, 2, MemberState::left), 4 * kSec);
  std::vector<MemberEvent> expiry;
  table.advance(9 * kSec + 1, 5 * kSec, 5 * kSec, expiry);
  EXPECT_EQ(table.find("b"), nullptr);
}

TEST(MemberTable, RefutesStaleNewsOfItself) {
  MemberTable table("me", "me:8654", 0);
  table.tick_self(1);  // heartbeat 2

  // A peer remembers our previous life at a version >= ours: bump past it.
  auto events = merge_one(table, peer("me", 4, 100), 2);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(table.self().incarnation, 5u);
  EXPECT_EQ(table.self().state, MemberState::alive);

  // Older news about ourselves is simply ignored.
  merge_one(table, peer("me", 1, 1), 3);
  EXPECT_EQ(table.self().incarnation, 5u);
}

// ------------------------------------------------------- group simulations

TEST(GossipSim, JoinConvergenceIsBounded) {
  GossipSimOptions options;
  options.members = 12;
  GossipSim sim(options);

  const int rounds = sim.run_until([&] { return sim.converged(); }, 20);
  ASSERT_GE(rounds, 0) << "group never converged";
  EXPECT_LE(rounds, 15) << "push-pull over 12 members should converge in "
                           "O(log N) rounds, took " << rounds;
  // Everyone knows everyone, nobody invented members.
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim.agent(i).members().size(), sim.size());
  }
}

TEST(GossipSim, CompletenessHoldsUnderMessageLoss) {
  GossipSimOptions options;
  options.members = 10;
  options.fanout = 3;
  GossipSim sim(options);
  sim.fabric.set_loss(0.10, /*seed=*/7);

  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 40), 0)
      << "10% per-exchange loss must only delay convergence";

  sim.crash(3);
  sim.crash(7);

  // Completeness: failure detection is timer-driven — loss cannot mask a
  // silent member.  Every live member convicts both within t_fail +
  // t_cleanup (10 rounds) plus dissemination slack.
  const auto both_detected = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (!sim.is_alive(i)) continue;
      if (!sim.sees_failed(i, 3) || !sim.sees_failed(i, 7)) return false;
    }
    return true;
  };
  const int rounds = sim.run_until(both_detected, 30);
  ASSERT_GE(rounds, 0);
  EXPECT_LE(rounds, 14);

  // Accuracy degrades gracefully: transient suspicions are allowed, but
  // the steady state must re-converge on the true membership.
  EXPECT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0);
}

TEST(GossipSim, AccuracyRecoversUnderHeavyLoss) {
  GossipSimOptions options;
  options.members = 8;
  options.fanout = 3;
  options.t_fail_us = 8 * kMicrosPerSecond;
  GossipSim sim(options);

  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0);
  sim.fabric.set_loss(0.30, /*seed=*/11);
  for (int i = 0; i < 30; ++i) sim.run_round();
  sim.fabric.set_loss(0.0);

  // Whatever false suspicions 30% loss produced, heartbeat progress clears
  // them: no live member may stay convicted once the network settles.
  EXPECT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0)
      << "false suspicions must be refuted by later heartbeats";
}

TEST(GossipSim, LeaveDisseminatesTombstoneNotFailure) {
  GossipSimOptions options;
  options.members = 6;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  // Watch gm0's transitions for the leaver.
  std::vector<MemberEvent::Kind> seen;
  sim.agent(0).set_event_handler([&](const MemberEvent& event) {
    if (event.entry.id == GossipSim::name_of(2)) seen.push_back(event.kind);
  });

  sim.leave(2);
  const auto all_saw_leave = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (sim.is_alive(i) && !sim.sees_failed(i, 2)) return false;
    }
    return true;
  };
  const int rounds = sim.run_until(all_saw_leave, 20);
  ASSERT_GE(rounds, 0);

  // The departure travelled as a tombstone: gm0 saw `left`, never the
  // failure-detection path.
  EXPECT_NE(std::find(seen.begin(), seen.end(), MemberEvent::Kind::left),
            seen.end());
  EXPECT_EQ(std::find(seen.begin(), seen.end(), MemberEvent::Kind::died),
            seen.end());

  // Tombstones expire: the row is gone after t_cleanup (+ slack).
  sim.run_until([&] { return !sim.agent(0).member(GossipSim::name_of(2)); },
                20);
  EXPECT_FALSE(sim.agent(0).member(GossipSim::name_of(2)).has_value());
}

TEST(GossipSim, PartitionConvictsThenHeals) {
  GossipSimOptions options;
  options.members = 8;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  // Isolate {gm0, gm1, gm2} for 12 simulated seconds: long enough for both
  // sides to declare the other DEAD (t_fail + t_cleanup = 10 s), short
  // enough that the rows are still in the post-mortem window when the
  // partition heals — the resurrection probes then re-merge the halves.
  const std::vector<std::string> minority = {GossipSim::address_of(0),
                                             GossipSim::address_of(1),
                                             GossipSim::address_of(2)};
  const TimeUs now = sim.clock.now_us();
  sim::FailureSchedule schedule;
  schedule.add_partition(now + kMicrosPerSecond, now + 13 * kMicrosPerSecond,
                         minority);
  const auto step = [&] {
    schedule.apply_due(sim.clock.now_us(), sim.fabric);
    sim.run_round();
  };

  // During the partition each side must convict the other (completeness is
  // per-side: silence is silence, whatever its cause).
  for (int i = 0; i < 12; ++i) step();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 3; j < sim.size(); ++j) {
      EXPECT_TRUE(sim.sees_failed(i, j)) << i << " should convict " << j;
      EXPECT_TRUE(sim.sees_failed(j, i)) << j << " should convict " << i;
    }
  }
  // ...while each side stays converged on itself.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_TRUE(sim.sees_alive(i, j));
      }
    }
  }

  // Heal.  Both sides hold SUSPECT/DEAD rows for each other, so every
  // round each member probes a convicted address — the first answered
  // probe re-merges the views.
  int rounds = 0;
  while (!sim.converged() && rounds < 25) {
    step();
    ++rounds;
  }
  EXPECT_TRUE(sim.converged())
      << "healed partition failed to re-converge after " << rounds
      << " rounds";
}

TEST(GossipSim, ChurnCrashRestartLeave) {
  GossipSimOptions options;
  options.members = 8;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  sim.crash(1);
  sim.leave(3);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0)
      << "crash + leave not detected everywhere";

  // The crashed member restarts as a fresh process.  By now its old rows
  // are convicted (and eventually dropped) everywhere, so it re-enters as
  // a plain join once the post-mortem retention lapses.
  sim.restart(1);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0)
      << "restarted member never re-admitted";
  EXPECT_EQ(sim.live_count(), sim.size() - 1);
}

TEST(GossipSim, FastRestartRefutesItsOldLife) {
  GossipSimOptions options;
  options.members = 6;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  // Restart *before* anyone convicts the old life (t_fail is 5 rounds):
  // peers still gossip the old row with its high heartbeat, so the fresh
  // process hears a version at-or-beyond its own and must refute it by
  // bumping its incarnation — otherwise its new heartbeats would look
  // stale forever.
  sim.crash(2);
  sim.run_round();
  sim.restart(2);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  EXPECT_GT(sim.agent(2).member(GossipSim::name_of(2))->incarnation, 0u)
      << "refutation must have bumped the incarnation";
}

// ----------------------------------------------- digest-delta sessions

// Every pair of live members must hold byte-identical tables once gossip
// quiesces — the delta protocol's bar: cursors may delay news, never fork
// a view.
void expect_identical_views(const GossipSim& sim) {
  std::size_t first = sim.size();
  for (std::size_t i = 0; i < sim.size(); ++i) {
    if (!sim.is_alive(i)) continue;
    if (first == sim.size()) {
      first = i;
      continue;
    }
    EXPECT_TRUE(sim.same_view(first, i))
        << "gm" << first << " and gm" << i << " diverged";
  }
}

TEST(GossipDeltaSim, ConvergesLikeTextModeAndSendsDeltas) {
  GossipSimOptions options;
  options.members = 12;
  options.realistic_meta = true;
  GossipSimOptions text = options;
  options.delta = true;
  GossipSim sim(options);
  GossipSim ref(text);

  const int rounds = sim.run_until([&] { return sim.converged(); }, 20);
  const int ref_rounds = ref.run_until([&] { return ref.converged(); }, 20);
  ASSERT_GE(rounds, 0) << "delta-mode group never converged";
  ASSERT_GE(ref_rounds, 0);
  // Dissemination speed is a property of the exchange graph, not the wire
  // format: join detection must not regress past the text baseline bound.
  EXPECT_LE(rounds, 15);

  // Let the sessions warm and the heartbeat traffic settle.
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);

  std::uint64_t deltas = 0, rows = 0, rejects = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const AgentStats stats = sim.agent(i).stats();
    deltas += stats.digests_delta_sent;
    rows += stats.digest_rows_sent;
    rejects += stats.digest_rejects;
  }
  EXPECT_GT(deltas, 0u) << "no incremental digest was ever sent";
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(rejects, 0u) << "a loss-free fabric must never force a reject";

  // Steady state: a delta round carries ~1 changed row per exchange where
  // text mode re-ships all 12 members with their full metadata blocks.
  const std::uint64_t before = sim.total_bytes_out();
  const std::uint64_t ref_before = ref.total_bytes_out();
  for (int i = 0; i < 10; ++i) {
    sim.run_round();
    ref.run_round();
  }
  const std::uint64_t delta_bytes = sim.total_bytes_out() - before;
  const std::uint64_t text_bytes = ref.total_bytes_out() - ref_before;
  EXPECT_LT(delta_bytes * 5, text_bytes)
      << "steady-state delta traffic should be a small fraction of "
         "full-table traffic (delta=" << delta_bytes
      << " text=" << text_bytes << ")";
}

TEST(GossipDeltaSim, EchoSuppressionDropsReflectedRows) {
  // Push-pull reflects rows straight back: the responder merges the
  // request, then its reply reports those same rows as "changed since the
  // initiator's ack" — guaranteed-rejected echoes.  The heard-floor must
  // suppress them, roughly halving steady-state row traffic, without
  // touching convergence.
  GossipSimOptions options;
  options.members = 12;
  options.delta = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  for (int i = 0; i < 10; ++i) sim.run_round();  // warm the cursors

  std::uint64_t rows_before = 0, suppressed_before = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    rows_before += sim.agent(i).stats().digest_rows_sent;
    suppressed_before += sim.agent(i).stats().digest_rows_suppressed;
  }
  for (int i = 0; i < 10; ++i) sim.run_round();
  std::uint64_t rows = 0, suppressed = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    rows += sim.agent(i).stats().digest_rows_sent;
    suppressed += sim.agent(i).stats().digest_rows_suppressed;
  }
  rows -= rows_before;
  suppressed -= suppressed_before;

  EXPECT_GT(suppressed, 0u) << "no echo was ever suppressed";
  // Every suppressed row is one the wire did not carry; in steady state
  // the reflected half of each exchange is comparable to the useful half.
  EXPECT_GT(suppressed * 4, rows)
      << "suppression should remove a substantial share of steady-state "
         "rows (sent=" << rows << " suppressed=" << suppressed << ")";
  expect_identical_views(sim);
}

TEST(GossipDeltaSim, CompletenessHoldsUnderMessageLoss) {
  GossipSimOptions options;
  options.members = 10;
  options.fanout = 3;
  options.delta = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  sim.fabric.set_loss(0.10, /*seed=*/7);

  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 40), 0)
      << "10% per-exchange loss must only delay convergence";

  sim.crash(3);
  sim.crash(7);
  const auto both_detected = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (!sim.is_alive(i)) continue;
      if (!sim.sees_failed(i, 3) || !sim.sees_failed(i, 7)) return false;
    }
    return true;
  };
  const int rounds = sim.run_until(both_detected, 30);
  ASSERT_GE(rounds, 0);
  EXPECT_LE(rounds, 14) << "detection is timer-driven; the wire format "
                           "cannot slow it down";

  EXPECT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0);
  sim.fabric.set_loss(0.0);
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);
}

TEST(GossipDeltaSim, PartitionConvictsHealsAndResyncs) {
  GossipSimOptions options;
  options.members = 8;
  options.delta = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  const std::vector<std::string> minority = {GossipSim::address_of(0),
                                             GossipSim::address_of(1),
                                             GossipSim::address_of(2)};
  const TimeUs now = sim.clock.now_us();
  sim::FailureSchedule schedule;
  schedule.add_partition(now + kMicrosPerSecond, now + 13 * kMicrosPerSecond,
                         minority);
  const auto step = [&] {
    schedule.apply_due(sim.clock.now_us(), sim.fabric);
    sim.run_round();
  };

  for (int i = 0; i < 12; ++i) step();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 3; j < sim.size(); ++j) {
      EXPECT_TRUE(sim.sees_failed(i, j)) << i << " should convict " << j;
      EXPECT_TRUE(sim.sees_failed(j, i)) << j << " should convict " << i;
    }
  }

  int rounds = 0;
  while (!sim.converged() && rounds < 25) {
    step();
    ++rounds;
  }
  EXPECT_TRUE(sim.converged())
      << "healed partition failed to re-converge after " << rounds;
  for (int i = 0; i < 10; ++i) step();
  expect_identical_views(sim);
}

TEST(GossipDeltaSim, RestartForcesResyncNotDivergence) {
  GossipSimOptions options;
  options.members = 8;
  options.delta = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  for (int i = 0; i < 5; ++i) sim.run_round();  // warm every cursor

  // A restarted process holds no receiver sessions: peers' established
  // cursors get a resync ack on their next delta and must rebuild a
  // self-contained full — never leave the newcomer a partial table.
  sim.crash(5);
  ASSERT_GE(sim.run_until(
                [&] {
                  for (std::size_t i = 0; i < sim.size(); ++i) {
                    if (sim.is_alive(i) && !sim.sees_failed(i, 5)) return false;
                  }
                  return true;
                },
                30),
            0);
  sim.restart(5);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0)
      << "restarted member never re-admitted";
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);

  std::uint64_t resyncs = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    resyncs += sim.agent(i).stats().full_resyncs;
  }
  EXPECT_GT(resyncs, 0u)
      << "crash/restart churn must surface as counted resyncs";
}

TEST(GossipDeltaSim, MixedFleetInteroperates) {
  // Rolling upgrade: gm0..gm3 still initiate text digests, gm4..gm9 run
  // delta sessions.  Receivers answer in the request's format, so every
  // pair interoperates and the group converges as one.
  GossipSimOptions options;
  options.members = 10;
  options.delta = true;
  options.text_members = 4;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 25), 0);
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);

  // The text member never *initiates* binary exchanges, but as a responder
  // it still answers them, so only the delta member's initiations are a
  // clean observable.
  EXPECT_GT(sim.agent(9).stats().digests_delta_sent, 0u);
}

TEST(GossipDeltaSim, OversizeTableRefusesAndFallsBackToText) {
  // A cap too small for even a self-digest: every full encode refuses,
  // every pair demotes to text digests, and the group still converges —
  // the cap degrades efficiency, never correctness.
  GossipSimOptions options;
  options.members = 6;
  options.delta = true;
  options.realistic_meta = true;  // ~150 bytes of metadata per row
  options.max_digest_bytes = 256;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 30), 0)
      << "byte-cap refusals must not prevent convergence";

  std::uint64_t refusals = 0, fallbacks = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    refusals += sim.agent(i).stats().digest_refusals;
    fallbacks += sim.agent(i).stats().text_fallbacks;
  }
  EXPECT_GT(refusals, 0u) << "a 256-byte cap must refuse full tables";
  EXPECT_GT(fallbacks, 0u) << "refused pairs must demote to text";
}

TEST(GossipDeltaSim, PiggybackCarrierCarriesExchanges) {
  GossipSimOptions options;
  options.members = 8;
  options.delta = true;
  options.piggyback = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);

  std::uint64_t carried = 0, total = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    carried += sim.agent(i).stats().piggyback_exchanges;
    total += sim.agent(i).stats().sends;
  }
  EXPECT_GT(carried, 0u) << "no exchange ever rode the carrier";
  // Known peers ride the channel; only seed probes at unknown addresses
  // may still dial.
  EXPECT_GT(carried * 2, total)
      << "most exchanges should piggyback (carried=" << carried
      << " of " << total << ")";
}

TEST(GossipDeltaSim, PiggybackSurvivesPartitionAndCrash) {
  GossipSimOptions options;
  options.members = 8;
  options.delta = true;
  options.piggyback = true;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  // The carrier honours the partition (a severed stream), so conviction
  // and healing behave exactly as with dialled exchanges.
  const std::vector<std::string> minority = {GossipSim::address_of(0),
                                             GossipSim::address_of(1)};
  const TimeUs now = sim.clock.now_us();
  sim::FailureSchedule schedule;
  schedule.add_partition(now + kMicrosPerSecond, now + 13 * kMicrosPerSecond,
                         minority);
  const auto step = [&] {
    schedule.apply_due(sim.clock.now_us(), sim.fabric);
    sim.run_round();
  };
  for (int i = 0; i < 12; ++i) step();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 2; j < sim.size(); ++j) {
      EXPECT_TRUE(sim.sees_failed(i, j));
      EXPECT_TRUE(sim.sees_failed(j, i));
    }
  }
  int rounds = 0;
  while (!sim.converged() && rounds < 25) {
    step();
    ++rounds;
  }
  EXPECT_TRUE(sim.converged());

  sim.crash(6);
  ASSERT_GE(sim.run_until(
                [&] {
                  for (std::size_t i = 0; i < sim.size(); ++i) {
                    if (sim.is_alive(i) && !sim.sees_failed(i, 6)) return false;
                  }
                  return true;
                },
                30),
            0)
      << "a dead carrier channel must not mask the failure";
  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);
}

}  // namespace
}  // namespace ganglia::gossip
