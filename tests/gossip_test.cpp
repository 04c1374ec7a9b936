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
#include "gossip_sim_util.hpp"
#include "net/inmem.hpp"
#include "sim/failure_schedule.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::gossip {
namespace {

// ------------------------------------------------------------------- codec

DigestRow defining_row(std::uint32_t name_id, const std::string& id) {
  DigestRow row;
  row.flags = kRowDefine | kRowFields;
  row.name_id = name_id;
  row.id = id;
  row.address = id + ":8654";
  return row;
}

TEST(GossipCodec, RoundTrips) {
  BinaryDigest digest;
  digest.kind = DigestKind::delta;
  digest.sender_id = "core";
  digest.ack = {AckKind::cursor, 11, 42, 3};
  digest.epoch = 7;
  digest.from_seq = 5;
  digest.to_seq = 9;
  DigestRow alive = defining_row(0, "core");
  alive.flags |= kRowMeta;
  alive.meta = {{"source", "core"}, {"xml", "core:8651"}, {"parent", "root"}};
  alive.incarnation = 3;
  alive.heartbeat = 17;
  digest.rows.push_back(alive);
  DigestRow gone;  // a tombstone against an already-defined name
  gone.flags = kRowLeft;
  gone.name_id = 1;
  gone.heartbeat = 9;
  digest.rows.push_back(gone);

  auto decoded = decode_binary_digest(encode_binary_digest(digest));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->kind, DigestKind::delta);
  EXPECT_EQ(decoded->sender_id, "core");
  EXPECT_EQ(decoded->ack.kind, AckKind::cursor);
  EXPECT_EQ(decoded->ack.epoch, 11u);
  EXPECT_EQ(decoded->ack.seq, 42u);
  EXPECT_EQ(decoded->ack.names, 3u);
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->from_seq, 5u);
  EXPECT_EQ(decoded->to_seq, 9u);
  ASSERT_EQ(decoded->rows.size(), 2u);
  const DigestRow& a = decoded->rows[0];
  EXPECT_EQ(a.flags, kRowDefine | kRowFields | kRowMeta);
  EXPECT_EQ(a.name_id, 0u);
  EXPECT_EQ(a.id, "core");
  EXPECT_EQ(a.address, "core:8654");
  EXPECT_EQ(a.meta, alive.meta);
  EXPECT_EQ(a.incarnation, 3u);
  EXPECT_EQ(a.heartbeat, 17u);
  const DigestRow& b = decoded->rows[1];
  EXPECT_EQ(b.flags, kRowLeft);
  EXPECT_EQ(b.name_id, 1u);
  EXPECT_TRUE(b.id.empty());
  EXPECT_TRUE(b.address.empty());
  EXPECT_TRUE(b.meta.empty());
  EXPECT_EQ(b.incarnation, 0u);
  EXPECT_EQ(b.heartbeat, 9u);
}

/// One full digest from `sender` carrying `rows`, framed for service().
std::string framed_full(const std::string& sender,
                        std::vector<DigestRow> rows) {
  BinaryDigest digest;
  digest.sender_id = sender;
  digest.epoch = 1;
  digest.to_seq = rows.size();
  digest.rows = std::move(rows);
  std::string framed;
  put_digest_frames(framed, encode_binary_digest(digest), 64u << 10);
  return framed;
}

/// Decode a framed reply from service().
BinaryDigest unframe(const Result<std::string>& reply) {
  EXPECT_TRUE(reply.ok()) << reply.error().to_string();
  auto payload = collect_digest_frames(*reply, kMaxDigestBytes);
  EXPECT_TRUE(payload.ok()) << payload.error().to_string();
  auto digest = decode_binary_digest(*payload);
  EXPECT_TRUE(digest.ok()) << digest.error().to_string();
  return *digest;
}

TEST(GossipCodec, LocalVerdictsAreNeverEncoded) {
  // "me" learns `d` and `s` from a peer, then its own timers convict them:
  // `d` DEAD, `s` SUSPECT.  Neither verdict may reach another member.
  sim::SimClock clock;
  net::InMemTransport fabric;
  AgentOptions opts;
  opts.id = "me";
  opts.address = "me:8654";
  opts.t_fail_us = 5 * kMicrosPerSecond;
  opts.t_cleanup_us = 5 * kMicrosPerSecond;
  Agent agent(std::move(opts), fabric, clock);
  const auto service = agent.service();

  DigestRow d = defining_row(0, "d");
  d.heartbeat = 1;
  (void)unframe(service(framed_full("p", {d})));
  clock.advance_us(6 * kMicrosPerSecond);
  DigestRow s = defining_row(0, "s");
  s.heartbeat = 1;
  (void)unframe(service(framed_full("q", {s})));
  agent.tick();  // d: SUSPECT
  clock.advance_us(5 * kMicrosPerSecond);
  agent.tick();  // d: DEAD, s: SUSPECT
  ASSERT_EQ(agent.member("d")->state, MemberState::dead);
  ASSERT_EQ(agent.member("s")->state, MemberState::suspect);

  // A newcomer gets a full table from "me": only "me" itself is in it.
  const BinaryDigest reply = unframe(service(framed_full("newcomer", {})));
  EXPECT_EQ(reply.kind, DigestKind::full);
  ASSERT_EQ(reply.rows.size(), 1u);
  EXPECT_EQ(reply.rows[0].id, "me")
      << "SUSPECT/DEAD are local judgements; forwarding them would let one "
         "slow link convict a member everywhere";
}

// The gossip port's request boundary found exactly wherever the bytes
// split — with the scan resuming instead of restarting.
TEST(GossipCodec, RequestEndFindsEveryDigestAtAnySplit) {
  sim::SimClock clock;
  net::InMemTransport fabric;
  AgentOptions opts;
  opts.id = "gm0";
  opts.address = "gm0:8654";
  opts.max_frame = 8;  // many small chunks
  Agent agent(std::move(opts), fabric, clock);

  std::string request;
  put_digest_frames(request, std::string(50, 'p'), 8);
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
  BinaryDigest valid;
  valid.sender_id = "me";
  valid.epoch = 1;
  valid.to_seq = 1;
  valid.rows.push_back(defining_row(0, "a"));
  const std::string wire = encode_binary_digest(valid);
  ASSERT_TRUE(decode_binary_digest(wire).ok());

  EXPECT_FALSE(decode_binary_digest("").ok());
  std::string bad_magic = wire;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  EXPECT_FALSE(decode_binary_digest(bad_magic).ok()) << "bad magic";

  std::string magic;
  net::put_varint(magic, kDigestMagic);
  for (const char kind : {'\0', '\3'}) {
    std::string unknown = wire;
    unknown[magic.size()] = kind;
    EXPECT_FALSE(decode_binary_digest(unknown).ok())
        << "unknown kind " << static_cast<int>(kind);
  }

  BinaryDigest backwards = valid;
  backwards.from_seq = 5;
  backwards.to_seq = 3;
  EXPECT_FALSE(decode_binary_digest(encode_binary_digest(backwards)).ok())
      << "from_seq > to_seq";

  BinaryDigest bare_meta = valid;
  bare_meta.rows[0].flags = kRowDefine | kRowMeta;
  bare_meta.rows[0].meta = {{"source", "a"}};
  EXPECT_FALSE(decode_binary_digest(encode_binary_digest(bare_meta)).ok())
      << "a meta flag travels only with fields";

  std::string too_many = magic;
  net::put_u8(too_many, static_cast<std::uint8_t>(DigestKind::full));
  net::put_string(too_many, "me");
  net::put_u8(too_many, static_cast<std::uint8_t>(AckKind::resync));
  net::put_varint(too_many, 1);  // epoch
  net::put_varint(too_many, 0);  // from_seq
  net::put_varint(too_many, 1);  // to_seq
  net::put_varint(too_many, kMaxDigestEntries + 1);
  EXPECT_FALSE(decode_binary_digest(too_many).ok()) << "row count over cap";

  EXPECT_FALSE(decode_binary_digest(wire + "x").ok()) << "trailing bytes";
  EXPECT_FALSE(decode_binary_digest(wire.substr(0, wire.size() - 1)).ok())
      << "truncated";
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
  GossipSim sim(options);

  const int rounds = sim.run_until([&] { return sim.converged(); }, 20);
  ASSERT_GE(rounds, 0) << "group never converged";
  // Dissemination speed is a property of the exchange graph, not the wire
  // format: join detection must stay within the full-table bound.
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

  // The full-table baseline: every exchange shipping all 12 members with
  // their metadata blocks, in both directions.
  BinaryDigest table;
  table.sender_id = GossipSim::name_of(0);
  for (const MemberEntry& member : sim.agent(0).members()) {
    DigestRow row;
    row.flags = kRowDefine | kRowFields | kRowMeta;
    row.name_id = static_cast<std::uint32_t>(table.rows.size());
    row.id = member.id;
    row.address = member.address;
    row.meta = member.meta;
    row.incarnation = member.incarnation;
    row.heartbeat = member.heartbeat;
    table.rows.push_back(std::move(row));
  }
  const std::uint64_t full_table_bytes = encode_binary_digest(table).size();

  // Steady state: a delta round carries ~1 changed row per exchange.
  const auto sends = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      total += sim.agent(i).stats().sends;
    }
    return total;
  };
  const std::uint64_t before = sim.total_bytes_out();
  const std::uint64_t sends_before = sends();
  for (int i = 0; i < 10; ++i) sim.run_round();
  const std::uint64_t delta_bytes = sim.total_bytes_out() - before;
  const std::uint64_t baseline_bytes =
      (sends() - sends_before) * 2 * full_table_bytes;
  EXPECT_LT(delta_bytes * 5, baseline_bytes)
      << "steady-state delta traffic should be a small fraction of "
         "full-table traffic (delta=" << delta_bytes
      << " full tables=" << baseline_bytes << ")";
}

TEST(GossipDeltaSim, EchoSuppressionDropsReflectedRows) {
  // Push-pull reflects rows straight back: the responder merges the
  // request, then its reply reports those same rows as "changed since the
  // initiator's ack" — guaranteed-rejected echoes.  The heard-floor must
  // suppress them, roughly halving steady-state row traffic, without
  // touching convergence.
  GossipSimOptions options;
  options.members = 12;
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
  // Uncapped, then capped far below the table with a partition long
  // enough for each side to drop the other: the first full after healing
  // is cut, and the rows past the cut must not lean on members the peer
  // held before the partition but has since dropped.
  struct Case {
    std::size_t cap;
    int partition_rounds;
  };
  for (const Case c : {Case{0, 12}, Case{256, 20}}) {
    SCOPED_TRACE("cap " + std::to_string(c.cap));
    GossipSimOptions options;
    options.members = 8;
    options.realistic_meta = true;
    options.max_digest_bytes = c.cap;
    GossipSim sim(options);
    ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

    const std::vector<std::string> minority = {GossipSim::address_of(0),
                                               GossipSim::address_of(1),
                                               GossipSim::address_of(2)};
    const TimeUs now = sim.clock.now_us();
    sim::FailureSchedule schedule;
    schedule.add_partition(
        now + kMicrosPerSecond,
        now + (c.partition_rounds + 1) * kMicrosPerSecond, minority);
    const auto step = [&] {
      schedule.apply_due(sim.clock.now_us(), sim.fabric);
      sim.run_round();
    };

    for (int i = 0; i < c.partition_rounds; ++i) step();
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

    // Healing costs each session a resync or two (a dropped member taints
    // every session that held it); then the sessions settle for good.
    const auto resyncs = [&] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < sim.size(); ++i) {
        total += sim.agent(i).stats().full_resyncs;
      }
      return total;
    };
    const std::uint64_t healed = resyncs();
    EXPECT_LE(healed, 2 * sim.size() * (sim.size() - 1));
    for (int i = 0; i < 10; ++i) step();
    EXPECT_EQ(resyncs(), healed) << "a session keeps resyncing";
  }
}

TEST(GossipDeltaSim, RestartForcesResyncNotDivergence) {
  GossipSimOptions options;
  options.members = 8;
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

TEST(GossipDeltaSim, OversizeFullTablesShipInChunks) {
  // A cap far below the table: every full ships the prefix that fits and
  // the rest follows as deltas.  The group must converge as if uncapped,
  // with no dictionary gap, no reject and no resync along the way.
  struct Case {
    std::size_t members;
    std::size_t cap;
  };
  for (const Case c : {Case{6, 256}, Case{12, 512}, Case{24, 1024},
                       Case{48, 1024}, Case{64, 2048}, Case{128, 4096}}) {
    SCOPED_TRACE(std::to_string(c.members) + " members, cap " +
                 std::to_string(c.cap));
    GossipSimOptions options;
    options.members = c.members;
    options.realistic_meta = true;  // ~90 bytes per row with its fields
    options.max_digest_bytes = c.cap;
    GossipSim sim(options);
    ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 15), 0)
        << "chunked fulls must not hold up convergence";
    for (int i = 0; i < 10; ++i) sim.run_round();
    expect_identical_views(sim);

    std::uint64_t truncations = 0, rejects = 0, resyncs = 0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      const AgentStats stats = sim.agent(i).stats();
      truncations += stats.digest_truncations;
      rejects += stats.digest_rejects;
      resyncs += stats.full_resyncs;
    }
    EXPECT_GT(truncations, 0u) << "the cap must have cut some digest";
    EXPECT_EQ(rejects, 0u);
    EXPECT_EQ(resyncs, 0u);
  }
}

/// Two agents "a" and "b" that know each other, on a fabric with no
/// services: only their carriers connect them.
struct CarrierPair {
  CarrierPair() {
    const auto make = [&](const std::string& id) {
      AgentOptions opts;
      opts.id = id;
      opts.address = id + ":8654";
      opts.fanout = 1;
      opts.t_fail_us = 5 * kMicrosPerSecond;
      opts.t_cleanup_us = 5 * kMicrosPerSecond;
      return std::make_unique<Agent>(std::move(opts), fabric, clock);
    };
    a = make("a");
    b = make("b");
    (void)unframe(a->handle_request(framed_full("b", {defining_row(0, "b")})));
    (void)unframe(b->handle_request(framed_full("a", {defining_row(0, "a")})));
  }

  static std::string mode(const Agent& agent, const std::string& peer) {
    for (const PeerSessionView& session : agent.peer_sessions()) {
      if (session.peer == peer) return session.mode;
    }
    return "none";
  }

  sim::SimClock clock;
  net::InMemTransport fabric;
  std::unique_ptr<Agent> a;
  std::unique_ptr<Agent> b;
};

BinaryDigest decoded(const std::string& payload) {
  auto digest = decode_binary_digest(payload);
  EXPECT_TRUE(digest.ok()) << digest.error().to_string();
  return *digest;
}

TEST(GossipSession, CrossingFullsSettleOnTheirFirstExchange) {
  // Both tick at once and their fulls cross: each takes the other's full
  // while its own is still in flight.  Each answers with the full already
  // in flight (same epoch), so whichever copy the peer acks establishes
  // the cursor.  A fresh full would turn both acks stale, every round.
  CarrierPair pair;
  Agent& a = *pair.a;
  Agent& b = *pair.b;
  bool crossing = true;
  std::string a_full, b_full, a_answer, b_answer;
  a.set_carrier([&](const std::string&, const std::string& payload)
                    -> std::optional<Result<std::string>> {
    if (!crossing) return b.handle_digest_payload(payload);
    a_full = payload;
    b.tick();  // b's tick runs while a's full is in flight
    return Result<std::string>(b_answer);
  });
  b.set_carrier([&](const std::string&, const std::string& payload)
                    -> std::optional<Result<std::string>> {
    if (!crossing) return a.handle_digest_payload(payload);
    b_full = payload;
    auto to_b = a.handle_digest_payload(b_full);  // a's full still in flight
    auto to_a = b.handle_digest_payload(a_full);  // b's full still in flight
    EXPECT_TRUE(to_b.ok() && to_a.ok());
    b_answer = *to_a;
    a_answer = *to_b;
    return to_b;
  });

  pair.clock.advance_us(kMicrosPerSecond);
  a.tick();
  const BinaryDigest a_sent = decoded(a_full), b_sent = decoded(b_full);
  ASSERT_EQ(a_sent.kind, DigestKind::full);
  ASSERT_EQ(b_sent.kind, DigestKind::full);
  for (const auto& [sent, answer] :
       {std::pair{a_sent, decoded(a_answer)}, {b_sent, decoded(b_answer)}}) {
    SCOPED_TRACE(sent.sender_id);
    EXPECT_EQ(answer.kind, DigestKind::full);
    EXPECT_EQ(answer.epoch, sent.epoch)
        << "a fresh epoch turns the ack of the in-flight full stale";
    EXPECT_EQ(answer.rows.size(), sent.rows.size());
  }
  EXPECT_EQ(CarrierPair::mode(a, "b"), "delta");
  EXPECT_EQ(CarrierPair::mode(b, "a"), "delta");

  // Settled: the next round is deltas both ways.
  crossing = false;
  const std::uint64_t fulls =
      a.stats().digests_full_sent + b.stats().digests_full_sent;
  pair.clock.advance_us(kMicrosPerSecond);
  a.tick();
  b.tick();
  EXPECT_EQ(a.stats().digests_full_sent + b.stats().digests_full_sent, fulls);
  EXPECT_EQ(a.stats().digest_rejects + b.stats().digest_rejects, 0u);
}

TEST(GossipSession, CrossedPullsCarryRowsWhileOurDialFails) {
  // a cannot reach b while b reaches a, and every exchange b starts lands
  // while a's own digest to b is in flight (their ticks coincide).  b's
  // pulls must still bring a's rows back, or b convicts a live member.
  CarrierPair pair;
  Agent& a = *pair.a;
  Agent& b = *pair.b;
  a.set_carrier([&](const std::string&, const std::string&)
                    -> std::optional<Result<std::string>> {
    b.tick();
    return Result<std::string>(Err(Errc::timeout, "link from a to b down"));
  });
  b.set_carrier([&](const std::string&, const std::string& payload)
                    -> std::optional<Result<std::string>> {
    return a.handle_digest_payload(payload);
  });

  for (int round = 0; round < 30; ++round) {
    pair.clock.advance_us(kMicrosPerSecond);
    a.tick();
  }
  EXPECT_GE(a.stats().send_failures, 30u) << "a's own dials must all fail";
  ASSERT_TRUE(b.member("a").has_value());
  EXPECT_EQ(b.member("a")->state, MemberState::alive)
      << "b heard nothing from a through its own pulls";
  EXPECT_EQ(a.member("b")->state, MemberState::alive);
}

TEST(GossipSession, RowsPastACutFullCarryFieldsOnceThePeerResyncs) {
  // "p" told us about x0..x4 once.  A resync says p lost our session, and
  // it may have dropped those members since.  The full we send next is
  // cut at the cap, and every row defined after it must carry its fields:
  // a bare row for a member p no longer holds is rejected, and the resync
  // that forces would cut the same full again.
  sim::SimClock clock;
  net::InMemTransport fabric;
  AgentOptions opts;
  opts.id = "q";
  opts.address = "q:8654";
  opts.max_digest_bytes = 256;
  Agent q(std::move(opts), fabric, clock);
  const auto exchange = [&](BinaryDigest request) {
    std::string framed;
    put_digest_frames(framed, encode_binary_digest(request), 64u << 10);
    return unframe(q.handle_request(framed));
  };
  const auto table = [](const std::string& sender, std::uint64_t heartbeat) {
    BinaryDigest digest;
    digest.sender_id = sender;
    digest.epoch = 1;
    for (std::uint32_t i = 0; i < 5; ++i) {
      const std::string id = "x" + std::to_string(i);
      DigestRow row = defining_row(i, id);
      row.flags |= kRowMeta;
      row.meta = {{"source", id}, {"xml", id + ":8651"}};
      row.heartbeat = heartbeat;
      digest.rows.push_back(std::move(row));
    }
    digest.to_seq = digest.rows.size();
    return digest;
  };
  // p's idle stream, acking what q sent it last.
  const auto acking = [](const BinaryDigest& last) {
    BinaryDigest digest;
    digest.kind = DigestKind::delta;
    digest.sender_id = "p";
    digest.epoch = 1;
    digest.from_seq = 5;
    digest.to_seq = 5;
    std::uint64_t names = 0;
    for (const DigestRow& row : last.rows) {
      if ((row.flags & kRowDefine) != 0) {
        names = std::max<std::uint64_t>(names, row.name_id + 1u);
      }
    }
    digest.ack = {AckKind::cursor, last.epoch, last.to_seq, names};
    return digest;
  };

  BinaryDigest last = exchange(table("p", 1));
  (void)exchange(table("r", 2));  // fresher news: no longer echoes to p
  last = exchange(acking(last));
  ASSERT_EQ(last.kind, DigestKind::delta) << "the cursor to p is established";

  BinaryDigest resync = acking(last);
  resync.ack = DigestAck{};
  last = exchange(resync);
  ASSERT_EQ(last.kind, DigestKind::full);
  ASSERT_EQ(q.stats().digest_truncations, 1u) << "the new full was not cut";
  const std::size_t in_full = last.rows.size();
  std::size_t defined = 0;
  for (int i = 0; i < 10; ++i) {
    last = exchange(acking(last));
    ASSERT_EQ(last.kind, DigestKind::delta);
    for (const DigestRow& row : last.rows) {
      if ((row.flags & kRowDefine) == 0) continue;
      ++defined;
      EXPECT_NE(row.flags & kRowFields, 0) << row.id << " ships bare";
    }
  }
  EXPECT_EQ(in_full + defined, 6u) << "q and x0..x4, each defined once";
}

TEST(GossipDeltaSim, PiggybackCarrierCarriesExchanges) {
  GossipSimOptions options;
  options.members = 8;
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
