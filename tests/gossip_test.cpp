// Gossip membership: codec, precedence and merge rules, and deterministic
// group simulations (convergence, failure detection under loss, leaves,
// partitions, churn, restarts) over the in-memory fabric.
#include <algorithm>
#include <map>
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

constexpr TimeUs kSec = kMicrosPerSecond;

MemberEntry row(const std::string& id, std::uint64_t incarnation,
                MemberState state = MemberState::alive) {
  MemberEntry entry;
  entry.id = id;
  entry.address = id + ":8654";
  entry.incarnation = incarnation;
  entry.state = state;
  return entry;
}

/// A ping from a member whose row is news: its id, and its row in `rows`,
/// as its first messages after a change carry it.
Message hello(const MemberEntry& sender) {
  Message message;
  message.sender = sender.id;
  message.rows = {sender};
  return message;
}

// ------------------------------------------------------------------- codec

TEST(GossipCodec, RoundTrips) {
  Message ping_req;
  ping_req.kind = MessageKind::ping_req;
  ping_req.digest = 0x0123456789abcdefULL;
  ping_req.sender = "core";
  ping_req.target_id = "edge";
  ping_req.rows = {row("a", 3, MemberState::suspect),
                   row("b", kMaxIncarnation),
                   row("c", 9, MemberState::left)};
  ping_req.rows[0].meta = {{"source", "a"}, {"empty", ""}};

  Message sync;
  sync.kind = MessageKind::sync;
  sync.digest = ~0ULL;
  sync.sender = "core";
  sync.page_from = "a";
  sync.page_to = "m";
  sync.have = {0, 1, 0x8000000000000000ULL, ~0ULL};
  sync.rows = {row("core", 1'062'000'000'000'000ULL), row("b", 2),
               row("d", kMaxIncarnation - 1, MemberState::suspect)};
  sync.rows[0].meta = {
      {"source", "core"}, {"xml", "core:8651"}, {"parent", "root"}};

  Message ping;
  ping.sender = "core";
  Message ack = ping;
  ack.kind = MessageKind::ack;
  Message nack = ping;
  nack.kind = MessageKind::nack;
  nack.rows = {row("core", 2, MemberState::suspect)};

  for (const Message& sent : {ping_req, sync, ping, ack, nack}) {
    SCOPED_TRACE(static_cast<int>(sent.kind));
    auto got = decode_message(encode_message(sent));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got->kind, sent.kind);
    EXPECT_EQ(got->digest, sent.digest);
    EXPECT_EQ(got->sender, sent.sender);
    EXPECT_EQ(got->target_id, sent.target_id);
    EXPECT_EQ(got->page_from, sent.page_from);
    EXPECT_EQ(got->page_to, sent.page_to);
    EXPECT_EQ(got->have, sent.have);
    ASSERT_EQ(got->rows.size(), sent.rows.size());
    for (std::size_t i = 0; i < sent.rows.size(); ++i) {
      EXPECT_EQ(got->rows[i].id, sent.rows[i].id);
      EXPECT_EQ(got->rows[i].address, sent.rows[i].address);
      EXPECT_EQ(got->rows[i].incarnation, sent.rows[i].incarnation);
      EXPECT_EQ(got->rows[i].state, sent.rows[i].state);
      EXPECT_EQ(got->rows[i].meta, sent.rows[i].meta);
    }
  }
  // Only the id names the sender: a settled ping is the version and kind
  // bytes, the digest, the id and an empty row count.
  EXPECT_EQ(encode_message(ping).size(), 1 + 1 + 8 + (1 + 4) + 1);
  ping_req.rows.clear();
  EXPECT_EQ(encode_message(ping_req).size(), 1 + 1 + 8 + (1 + 4) + (1 + 4) + 1)
      << "a ping-req names its target by id alone";
}

TEST(GossipCodec, LocalVerdictsAreNeverEncoded) {
  // DEAD is a local verdict.  "me" hears a doubt about `d` and its own
  // timer convicts it; from then on every row "me" sends about `d` — the
  // ping that leads with `d`'s own row, news on a probe, a sync page — is
  // SUSPECT, and a DEAD row is refused on the way in.
  sim::SimClock clock;
  net::InMemTransport fabric;
  std::vector<std::string> payloads;  // every message "me" sends
  const auto unreachable = [&](std::string_view request) -> Result<std::string> {
    auto payload = collect_digest_frames(request, kMaxDigestBytes);
    if (payload.ok()) payloads.push_back(*payload);
    return Error{Errc::io_error, "unreachable"};
  };
  fabric.register_service("d:8654", unreachable);
  fabric.register_service("p:8654", unreachable);
  AgentOptions opts;
  opts.id = "me";
  opts.address = "me:8654";
  opts.t_fail_us = 5 * kSec;
  opts.t_cleanup_us = 5 * kSec;
  Agent agent(std::move(opts), fabric, clock);

  Message doubt = hello(row("p", 1));
  doubt.rows.push_back(row("d", 1));
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(doubt)).ok());
  doubt.rows = {row("d", 1, MemberState::suspect)};
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(doubt)).ok());
  clock.advance_us(10 * kSec);
  agent.tick();  // d: DEAD; probes p with d's news, pings d's address
  ASSERT_EQ(agent.member("d")->state, MemberState::dead);

  Message sync;
  sync.kind = MessageKind::sync;
  sync.sender = "q";
  auto page = agent.handle_digest_payload(encode_message(sync));
  ASSERT_TRUE(page.ok());
  payloads.push_back(*page);

  int carried = 0;
  for (const std::string& payload : payloads) {
    auto message = decode_message(payload);
    ASSERT_TRUE(message.ok()) << message.error().to_string();
    for (const MemberEntry& sent : message->rows) {
      if (sent.id != "d") continue;
      EXPECT_EQ(sent.state, MemberState::suspect);
      ++carried;
    }
  }
  EXPECT_GE(carried, 3) << "the ping to d, the news to p, the sync page";

  doubt.rows = {row("d", 2, MemberState::dead)};
  EXPECT_FALSE(agent.handle_digest_payload(encode_message(doubt)).ok());
  EXPECT_EQ(agent.member("d")->incarnation, 1u);
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
  // A Begin frame claiming more than the message cap is refused at once.
  std::string total;
  net::put_varint(total, kMaxDigestBytes + 1);
  std::string oversize;
  net::put_frame(oversize, kFrameDigestBegin, total);
  net::ScanState scan;
  EXPECT_EQ(agent.request_end(oversize, scan).state,
            net::RequestEnd::State::malformed);
}

TEST(GossipCodec, RejectsMalformedDigests) {
  Message valid;
  valid.sender = "me";
  valid.rows = {row("a", 1)};
  const std::string wire = encode_message(valid);
  ASSERT_TRUE(decode_message(wire).ok());

  EXPECT_FALSE(decode_message("").ok());
  for (const char version : {'\0', '\2', '\4', '\xff'}) {
    std::string other = wire;
    other[0] = version;
    EXPECT_FALSE(decode_message(other).ok())
        << "version " << static_cast<int>(version);
  }
  for (const char kind : {'\0', '\6'}) {
    std::string unknown = wire;
    unknown[1] = kind;
    EXPECT_FALSE(decode_message(unknown).ok())
        << "unknown kind " << static_cast<int>(kind);
  }
  // The sender's id: never empty, and at most kMaxIdBytes.
  Message no_sender = valid;
  no_sender.sender.clear();
  EXPECT_FALSE(decode_message(encode_message(no_sender)).ok()) << "empty id";
  Message long_sender = valid;
  long_sender.sender.assign(kMaxIdBytes, 's');
  EXPECT_TRUE(decode_message(encode_message(long_sender)).ok());
  long_sender.sender.push_back('s');
  EXPECT_FALSE(decode_message(encode_message(long_sender)).ok())
      << "id over cap";
  // A GGS2 ping, the wire GGS3 replaced: a varint magic, then its sender
  // by reference (state, id, address, incarnation).
  std::string ggs2;
  net::put_varint(ggs2, 0x32534747);
  net::put_u8(ggs2, static_cast<std::uint8_t>(MessageKind::ping));
  ggs2.append(8, '\0');
  net::put_u8(ggs2, 0);
  net::put_string(ggs2, "me");
  net::put_string(ggs2, "me:8654");
  net::put_varint(ggs2, 1);
  net::put_varint(ggs2, 0);
  EXPECT_FALSE(decode_message(ggs2).ok()) << "a GGS2 payload";

  // The first row's state byte follows the version and kind bytes, the
  // 8-byte digest, the sender's id and the row count.
  std::string bad_state = wire;
  bad_state[2 + 8 + 3 + 1] = '\4';
  EXPECT_FALSE(decode_message(bad_state).ok()) << "unknown state";

  // Rows that may not travel: DEAD is a local verdict, and no row may pass
  // the top of the range or leave a doubt's subject no room to refute it.
  struct Forged {
    MemberState state;
    std::uint64_t incarnation;
    const char* why;
  };
  for (const Forged& f :
       {Forged{MemberState::dead, 1, "a DEAD row"},
        Forged{MemberState::alive, kMaxIncarnation + 1, "past the top"},
        Forged{MemberState::suspect, kMaxIncarnation, "a doubt with no room"},
        Forged{MemberState::suspect, ~0ULL, "a doubt that would wrap"}}) {
    Message forged = valid;
    forged.rows[0].state = f.state;
    forged.rows[0].incarnation = f.incarnation;
    EXPECT_FALSE(decode_message(encode_message(forged)).ok()) << f.why;
  }
  Message no_id = valid;
  no_id.rows[0].id.clear();
  EXPECT_FALSE(decode_message(encode_message(no_id)).ok()) << "empty row id";
  Message no_address = valid;
  no_address.rows[0].address.clear();
  EXPECT_FALSE(decode_message(encode_message(no_address)).ok())
      << "empty address";
  Message no_target = valid;
  no_target.kind = MessageKind::ping_req;
  EXPECT_FALSE(decode_message(encode_message(no_target)).ok())
      << "a ping-req names its target";
  Message meta = valid;
  for (std::size_t i = 0; i <= kMaxMetaPairs; ++i) {
    meta.rows[0].meta["k" + std::to_string(i)] = "v";
  }
  EXPECT_FALSE(decode_message(encode_message(meta)).ok()) << "meta over cap";

  // A message's bytes before its page bounds or row count: one with no
  // rows, less its empty row count and, for a sync, its two empty page
  // bounds and empty hash count.
  const auto prefix = [&](MessageKind kind) {
    Message head;
    head.kind = kind;
    head.sender = valid.sender;
    std::string out = encode_message(head);
    out.resize(out.size() - (kind == MessageKind::sync ? 4 : 1));
    return out;
  };
  std::string no_rows = prefix(MessageKind::ping);
  net::put_varint(no_rows, 0);
  ASSERT_TRUE(decode_message(no_rows).ok());
  std::string too_many_rows = prefix(MessageKind::ping);
  net::put_varint(too_many_rows, kMaxDigestEntries + 1);
  EXPECT_FALSE(decode_message(too_many_rows).ok()) << "row count over cap";
  std::string no_hashes = prefix(MessageKind::sync);
  no_hashes.append(4, '\0');  // page bounds, hash count, row count
  ASSERT_TRUE(decode_message(no_hashes).ok());
  std::string too_many_hashes = prefix(MessageKind::sync);
  net::put_string(too_many_hashes, "");
  net::put_string(too_many_hashes, "");
  net::put_varint(too_many_hashes, kMaxDigestEntries + 1);
  too_many_hashes.append(8 * (kMaxDigestEntries + 1), '\0');
  net::put_varint(too_many_hashes, 0);
  EXPECT_FALSE(decode_message(too_many_hashes).ok()) << "hash count over cap";

  EXPECT_FALSE(decode_message(wire + "x").ok()) << "trailing bytes";
  EXPECT_FALSE(decode_message(wire.substr(0, wire.size() - 1)).ok())
      << "truncated";
}

// ------------------------------------------------------ precedence, merge

MemberTable table_of(const std::string& id, std::uint64_t incarnation = 10) {
  return MemberTable(row(id, incarnation));
}

std::vector<MemberEvent> merge_one(MemberTable& table, const MemberEntry& entry,
                                   TimeUs now) {
  std::vector<MemberEvent> events;
  table.merge(entry, now, events);
  return events;
}

MemberEvent::Kind only_event(const std::vector<MemberEvent>& events) {
  EXPECT_EQ(events.size(), 1u);
  return events.empty() ? MemberEvent::Kind::removed : events[0].kind;
}

TEST(MemberTable, FreshnessOrderAndEvents) {
  // Precedence, for their row against ours, one incarnation lower, equal,
  // or higher: a lower incarnation never wins, a higher one always does,
  // and at equal incarnations the graver verdict wins.
  const MemberState states[] = {MemberState::alive, MemberState::suspect,
                                MemberState::dead, MemberState::left};
  const bool equal_beats[4][4] = {
      // ours: ALIVE  SUSPECT DEAD   LEFT
      {false, false, false, false},  // theirs ALIVE
      {true, false, false, false},   // theirs SUSPECT
      {true, true, false, false},    // theirs DEAD
      {true, true, true, false},     // theirs LEFT
  };
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t o = 0; o < 4; ++o) {
      SCOPED_TRACE(std::string(member_state_name(states[t])) + " vs " +
                   member_state_name(states[o]));
      const MemberEntry ours = row("b", 5, states[o]);
      EXPECT_FALSE(overrides(row("b", 4, states[t]), ours));
      EXPECT_EQ(overrides(row("b", 5, states[t]), ours), equal_beats[t][o]);
      EXPECT_TRUE(overrides(row("b", 6, states[t]), ours));
    }
  }

  // The same order drives merge() and its events.
  MemberTable table = table_of("me");
  EXPECT_EQ(only_event(merge_one(table, row("b", 5), 10)),
            MemberEvent::Kind::joined);
  EXPECT_TRUE(merge_one(table, row("b", 4), 20).empty()) << "stale";
  EXPECT_EQ(table.find("b")->local_time_us, 10);
  EXPECT_EQ(only_event(merge_one(table, row("b", 5, MemberState::suspect), 30)),
            MemberEvent::Kind::suspected);
  EXPECT_TRUE(merge_one(table, row("b", 5), 40).empty())
      << "ALIVE at the suspected incarnation is no refutation";
  EXPECT_EQ(only_event(merge_one(table, row("b", 6), 50)),
            MemberEvent::Kind::recovered);
  EXPECT_TRUE(merge_one(table, row("b", 7, MemberState::dead), 60).empty())
      << "DEAD is a local verdict: no row convicts";
  EXPECT_EQ(table.find("b")->state, MemberState::alive);
  EXPECT_EQ(only_event(merge_one(table, row("b", 6, MemberState::left), 70)),
            MemberEvent::Kind::left);
  EXPECT_EQ(only_event(merge_one(table, row("b", 7), 80)),
            MemberEvent::Kind::joined)
      << "a fresh incarnation after a leave is a rejoin";

  // Only the living join: news of an unknown member's doubt or departure
  // is stale.
  for (const MemberState state : {MemberState::suspect, MemberState::left}) {
    EXPECT_TRUE(merge_one(table, row("x", 1, state), 90).empty());
  }
  EXPECT_EQ(table.find("x"), nullptr);

  // The digest is the XOR of every row's version: id, incarnation and
  // verdict, where SUSPECT and DEAD are one verdict.
  EXPECT_EQ(table.digest(), row_hash(table.self()) ^ row_hash(row("b", 7)));
  merge_one(table, row("b", 7, MemberState::suspect), 100);
  EXPECT_EQ(table.digest(), row_hash(table.self()) ^
                                row_hash(row("b", 7, MemberState::dead)));
  EXPECT_NE(row_hash(row("b", 7)), row_hash(row("b", 8)));
  EXPECT_NE(row_hash(row("b", 7)), row_hash(row("c", 7)));
  EXPECT_NE(row_hash(row("b", 7)), row_hash(row("b", 7, MemberState::left)));
}

TEST(MemberTable, SuspectRecoversOnHeartbeatProgress) {
  // No heartbeats: a suspect recovers only by refuting, with an
  // incarnation above the one suspected.  A failed probe's verdict is a
  // SUSPECT row at the probed incarnation, merged like a peer's.
  MemberTable table = table_of("me");
  merge_one(table, row("b", 5), 0);
  const MemberEntry doubt = row("b", 5, MemberState::suspect);
  EXPECT_TRUE(merge_one(table, row("b", 4, MemberState::suspect), kSec).empty())
      << "a doubt about an older life";
  EXPECT_EQ(only_event(merge_one(table, doubt, kSec)),
            MemberEvent::Kind::suspected);
  EXPECT_TRUE(merge_one(table, doubt, kSec).empty()) << "already SUSPECT";

  EXPECT_TRUE(merge_one(table, row("b", 5), 2 * kSec).empty());
  EXPECT_EQ(table.find("b")->state, MemberState::suspect);
  EXPECT_EQ(only_event(merge_one(table, row("b", 6), 3 * kSec)),
            MemberEvent::Kind::recovered);
  EXPECT_EQ(table.find("b")->state, MemberState::alive);
}

TEST(MemberTable, AdvanceWalksTheStateMachine) {
  MemberTable table = table_of("me");
  merge_one(table, row("b", 5), 0);
  merge_one(table, row("c", 5), 0);
  std::vector<MemberEvent> events;

  // ALIVE rows never time out: only a failed probe suspects.
  table.advance(1000 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_TRUE(events.empty());

  table.merge(row("b", 5, MemberState::suspect), 1000 * kSec, events);
  table.advance(1009 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b")->state, MemberState::suspect);
  table.advance(1010 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b")->state, MemberState::dead);
  // Post-mortem retention: t_cleanup more, then dropped.
  table.advance(1014 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_NE(table.find("b"), nullptr);
  table.advance(1015 * kSec, 5 * kSec, 5 * kSec, events);
  EXPECT_EQ(table.find("b"), nullptr);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, MemberEvent::Kind::suspected);
  EXPECT_EQ(events[1].kind, MemberEvent::Kind::died);
  EXPECT_EQ(events[2].kind, MemberEvent::Kind::removed);
  EXPECT_EQ(table.digest(), row_hash(table.self()) ^ row_hash(*table.find("c")));
  EXPECT_EQ(table.find("c")->state, MemberState::alive);
}

TEST(MemberTable, LeftTombstoneOverridesAliveAndExpires) {
  MemberTable table = table_of("me");
  merge_one(table, row("b", 2), 0);

  // Equal incarnation suffices: leaving is a choice, not a failure.
  EXPECT_EQ(only_event(merge_one(table, row("b", 2, MemberState::left), kSec)),
            MemberEvent::Kind::left);

  // Echoes and doubts about the pre-leave life must not touch the row.
  for (const MemberState state :
       {MemberState::alive, MemberState::suspect, MemberState::dead}) {
    EXPECT_TRUE(merge_one(table, row("b", 2, state), 2 * kSec).empty());
    EXPECT_EQ(table.find("b")->state, MemberState::left);
  }

  // A true rejoin carries a fresh incarnation.
  EXPECT_EQ(only_event(merge_one(table, row("b", 3), 3 * kSec)),
            MemberEvent::Kind::joined);
  EXPECT_EQ(table.find("b")->state, MemberState::alive);

  // And tombstones expire t_cleanup after the leave.
  merge_one(table, row("b", 3, MemberState::left), 4 * kSec);
  std::vector<MemberEvent> expiry;
  table.advance(9 * kSec - 1, 5 * kSec, 5 * kSec, expiry);
  EXPECT_NE(table.find("b"), nullptr);
  table.advance(9 * kSec, 5 * kSec, 5 * kSec, expiry);
  EXPECT_EQ(table.find("b"), nullptr);
}

TEST(MemberTable, RefutesStaleNewsOfItself) {
  MemberTable table = table_of("me", 10);
  const auto merge_self = [&](MemberState state, std::uint64_t incarnation) {
    const auto events = merge_one(table, row("me", incarnation, state), 0);
    EXPECT_TRUE(events.empty()) << "we never report our own transitions";
    return table.self().incarnation;
  };

  EXPECT_EQ(merge_self(MemberState::alive, 10), 10u) << "our row, echoed";
  EXPECT_EQ(merge_self(MemberState::suspect, 10), 11u) << "refute the doubt";
  EXPECT_EQ(merge_self(MemberState::dead, 11), 11u) << "DEAD never travels";
  EXPECT_EQ(merge_self(MemberState::suspect, 11), 12u);
  EXPECT_EQ(merge_self(MemberState::suspect, 5), 12u) << "an older doubt";
  EXPECT_EQ(merge_self(MemberState::alive, 40), 41u)
      << "a later life of ours is still circulating: outrank it";
  EXPECT_EQ(merge_self(MemberState::left, 41), 42u);
  EXPECT_EQ(table.self().state, MemberState::alive);

  // A new address or metadata value outranks every copy of the old row.
  table.set_self_meta("source", "me");
  EXPECT_EQ(table.self().incarnation, 43u);
  table.set_self_meta("source", "me");
  EXPECT_EQ(table.self().incarnation, 43u) << "unchanged value";
  table.set_self_address("me:9654");
  EXPECT_EQ(table.self().incarnation, 44u);

  // Having left, we stay gone.
  table.leave_self(kSec);
  EXPECT_EQ(merge_self(MemberState::suspect, 44), 44u);
  EXPECT_EQ(table.self().state, MemberState::left);

  // The top of the range: the highest doubt merged is refuted at the top,
  // which then holds, so nothing wraps; no row there can be outranked, and
  // none is a doubt.
  MemberTable top = table_of("me", 10);
  std::vector<MemberEvent> events;
  EXPECT_FALSE(top.merge(row("me", kMaxIncarnation, MemberState::suspect), 0,
                         events))
      << "a doubt with no room is never merged";
  EXPECT_EQ(top.self().incarnation, 10u);
  top.merge(row("me", kMaxIncarnation - 1, MemberState::suspect), 0, events);
  EXPECT_EQ(top.self().incarnation, kMaxIncarnation);
  top.merge(row("me", kMaxIncarnation, MemberState::left), 0, events);
  top.set_self_address("me:9654");
  EXPECT_EQ(top.self().incarnation, kMaxIncarnation);
  EXPECT_EQ(top.self().state, MemberState::alive);
  EXPECT_TRUE(events.empty());
}

// -------------------------------------------------------- agent, serving

TEST(GossipAgent, PingReqForAnUnknownTargetIsNackedWithoutADial) {
  // A ping-req names its target by id alone: the relay pings only a member
  // it holds, at the address it holds, and never an address the requester
  // names.
  sim::SimClock clock;
  net::InMemTransport fabric;
  std::map<std::string, int> dials;
  for (const std::string address : {"victim:1", "b:8654"}) {
    fabric.register_service(address, [&, address](std::string_view) {
      ++dials[address];
      return Result<std::string>(std::string());
    });
  }
  AgentOptions opts;
  opts.id = "me";
  opts.address = "me:8654";
  Agent agent(std::move(opts), fabric, clock);

  const auto send = [&](const Message& request) {
    auto reply = agent.handle_digest_payload(encode_message(request));
    EXPECT_TRUE(reply.ok()) << reply.error().to_string();
    auto decoded = decode_message(*reply);
    EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
    return decoded->kind;
  };
  const auto ask = [&](const std::string& id,
                       std::vector<MemberEntry> rows = {}) {
    Message request;
    request.kind = MessageKind::ping_req;
    request.sender = "q";
    request.target_id = id;
    request.rows = std::move(rows);
    return send(request);
  };

  EXPECT_EQ(ask("victim"), MessageKind::nack) << "unknown member";
  EXPECT_EQ(ask("me"), MessageKind::ack) << "we answer for ourselves";
  EXPECT_EQ(agent.stats().sends, 0u) << "nothing may be dialed";
  ASSERT_EQ(send(hello(row("b", 1))), MessageKind::ack);

  // A stale row naming another address for b changes nothing we hold, so
  // the relay pings b at b:8654 (and b's junk answer is a failed probe).
  MemberEntry elsewhere = row("b", 1);
  elsewhere.address = "victim:1";
  EXPECT_EQ(ask("b", {elsewhere}), MessageKind::nack);
  EXPECT_EQ(agent.member("b")->address, "b:8654");
  EXPECT_EQ(dials["b:8654"], 1);
  EXPECT_EQ(dials["victim:1"], 0) << "an address the requester names";
}

TEST(GossipAgent, RelaysOnePingReqAtATime) {
  // A relay holds the serving thread for up to one exchange bound, so a
  // ping-req arriving while another is relayed is nacked without a dial.
  sim::SimClock clock;
  net::InMemTransport fabric;
  AgentOptions opts;
  opts.id = "me";
  opts.address = "me:8654";
  Agent agent(std::move(opts), fabric, clock);
  const auto send = [&](const Message& request) {
    auto reply = agent.handle_digest_payload(encode_message(request));
    EXPECT_TRUE(reply.ok()) << reply.error().to_string();
    auto decoded = decode_message(*reply);
    EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
    return decoded->kind;
  };
  const auto ask = [&](const std::string& id) {
    Message request;
    request.kind = MessageKind::ping_req;
    request.sender = "q";
    request.target_id = id;
    return send(request);
  };
  for (const std::string id : {"b", "c"}) {
    ASSERT_EQ(send(hello(row(id, 1))), MessageKind::ack);
  }

  int c_dials = 0;
  MessageKind meanwhile = MessageKind::ping;
  fabric.register_service("b:8654", [&](std::string_view) {
    meanwhile = ask("c");  // arrives while our relay to b is in flight
    Message ack;
    ack.kind = MessageKind::ack;
    ack.sender = "b";
    std::string framed;
    put_digest_frames(framed, encode_message(ack), 64u << 10);
    return Result<std::string>(framed);
  });
  fabric.register_service("c:8654", [&](std::string_view) {
    ++c_dials;
    return Result<std::string>(std::string());
  });

  EXPECT_EQ(ask("b"), MessageKind::ack) << "b answered the relayed ping";
  EXPECT_EQ(meanwhile, MessageKind::nack);
  EXPECT_EQ(c_dials, 0);
  ask("c");
  EXPECT_EQ(c_dials, 1) << "once the relay is done, the next is honoured";
}

TEST(GossipAgent, DigestMismatchesSyncOnlyAtHeldAddresses) {
  // A message names its sender by id alone.  A digest mismatch in a request
  // syncs only with a member we hold, at the address we hold; a member we
  // do not hold is learnt from the row its sync request carries.
  sim::SimClock clock;
  net::InMemTransport fabric;
  std::vector<std::pair<std::string, MessageKind>> dialled;
  for (const std::string address : {"q:8654", "q:9654", "b:8654"}) {
    fabric.register_service(
        address, [&, address](std::string_view request) -> Result<std::string> {
          auto payload = collect_digest_frames(request, kMaxDigestBytes);
          auto message = payload.ok() ? decode_message(*payload)
                                      : Result<Message>(payload.error());
          if (message.ok()) dialled.emplace_back(address, message->kind);
          return Error{Errc::io_error, "unreachable"};
        });
  }
  AgentOptions opts;
  opts.id = "me";
  opts.address = "me:8654";
  Agent agent(std::move(opts), fabric, clock);
  const auto syncs_to = [&](const std::string& address) {
    return std::count(dialled.begin(), dialled.end(),
                      std::pair{address, MessageKind::sync});
  };
  const auto tick = [&] {
    dialled.clear();
    clock.advance_us(kSec);
    agent.tick();
  };

  // A ping from a member we never heard of, with a differing digest: no
  // address of it is held, so nothing is dialed.
  Message unknown;
  unknown.sender = "q";
  unknown.digest = row_hash(row("q", 1));
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(unknown)).ok());
  EXPECT_FALSE(agent.member("q").has_value());
  tick();
  EXPECT_TRUE(dialled.empty()) << "a ping names no address to dial";
  EXPECT_EQ(agent.stats().sends, 0u);

  // q's sync request carries its row; the request shows a version we lack,
  // so we pull back, at the address that row names.
  MemberEntry q = row("q", 1);
  q.address = "q:9654";
  Message sync;
  sync.kind = MessageKind::sync;
  sync.sender = "q";
  sync.have = {row_hash(q), row_hash(row("x", 1))};
  sync.rows = {q};
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(sync)).ok());
  ASSERT_EQ(agent.member("q")->address, "q:9654");
  tick();
  EXPECT_EQ(syncs_to("q:9654"), 1);
  EXPECT_EQ(syncs_to("q:8654"), 0);

  // A member we hold, whose row arrived while it was news; its digest
  // then matches ours, and nothing is synced.  Later its digest says it
  // holds a version we lack: the sync dials the address we hold.
  Message joined = hello(row("b", 1));
  joined.digest = row_hash(row("b", 1));
  for (const MemberEntry& member : agent.members()) {
    joined.digest ^= row_hash(member);
  }
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(joined)).ok());
  Message newer;
  newer.sender = "b";
  newer.digest = row_hash(row("b", 5));
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(newer)).ok());
  EXPECT_EQ(agent.member("b")->incarnation, 1u);
  tick();
  EXPECT_EQ(syncs_to("b:8654"), 1) << "the sync dials the held address";

  // Once b has left, its mismatches schedule nothing.
  Message left = hello(row("b", 1, MemberState::left));
  left.digest = newer.digest;
  ASSERT_TRUE(agent.handle_digest_payload(encode_message(left)).ok());
  ASSERT_EQ(agent.member("b")->state, MemberState::left);
  tick();
  EXPECT_EQ(syncs_to("b:8654"), 0) << "a member held LEFT";
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

  // Whatever false suspicions 30% loss produced, refutation clears them:
  // no live member may stay convicted once the network settles.
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
  // peers still hold the old row, and the fresh process must outrank it —
  // its incarnation starts at its start time, and it refutes any doubt
  // about itself by bumping it.
  sim.crash(2);
  sim.run_round();
  sim.restart(2);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  EXPECT_GT(sim.agent(2).member(GossipSim::name_of(2))->incarnation, 0u)
      << "refutation must have bumped the incarnation";
}


TEST(GossipSim, IndirectProbesKeepAReachableTargetAlive) {
  GossipSimOptions options;
  options.members = 6;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  const std::size_t target = 3;
  bool suspected = false;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    sim.agent(i).set_event_handler([&](const MemberEvent& event) {
      if (event.entry.id == GossipSim::name_of(target) &&
          event.kind == MemberEvent::Kind::suspected) {
        suspected = true;
      }
    });
  }
  const auto failures = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      total += sim.agent(i).stats().send_failures;
    }
    return total;
  };
  // Every round, the first connect to the target times out: whoever pings
  // it first loses the direct ping, and its ping-reqs reach the target.
  const std::uint64_t before = failures();
  for (int round = 0; round < 20; ++round) {
    sim.fabric.set_failure(GossipSim::address_of(target),
                           {net::FailurePolicy::Kind::timeout, 0, 1});
    sim.run_round();
  }
  EXPECT_GT(failures(), before) << "no direct ping to the target failed";
  EXPECT_FALSE(suspected) << "indirect probes reached the target";
  for (std::size_t i = 0; i < sim.size(); ++i) {
    if (i != target) {
      EXPECT_TRUE(sim.sees_alive(i, target)) << i;
    }
  }
}

TEST(GossipSim, FastRestartOnANewAddressReplacesTheOldRow) {
  GossipSimOptions options;
  options.members = 6;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);

  // Back on another port before anyone suspects the old life.  The new
  // life's incarnation (its start time) outranks the old row everywhere;
  // an incarnation restarting at its old count would leave peers on the
  // old address until they convicted it.
  sim.crash(2);
  sim.run_round();
  const std::string moved = "gm2:9654";
  sim.restart(2, moved);
  const auto everyone_moved = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (i == 2) continue;
      const auto entry = sim.agent(i).member(GossipSim::name_of(2));
      if (!entry || entry->address != moved ||
          entry->state != MemberState::alive) {
        return false;
      }
    }
    return true;
  };
  const int rounds = sim.run_until(everyone_moved, 20);
  ASSERT_GE(rounds, 0) << "peers kept the old address";
  EXPECT_LE(rounds, 5);
  EXPECT_TRUE(sim.converged());
}

// ---------------------------------------------- dissemination, anti-entropy

// Every pair of live members must hold identical tables once gossip
// quiesces: news and syncs may delay a change, never fork a view.
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

/// One message from member `i` carrying the rest of its table, metadata
/// included.
std::uint64_t full_table_bytes(GossipSim& sim, std::size_t i) {
  Message table;
  table.sender = GossipSim::name_of(i);
  for (const MemberEntry& member : sim.agent(i).members()) {
    if (member.id != table.sender) table.rows.push_back(member);
  }
  return encode_message(table).size();
}

std::uint64_t sum_of(GossipSim& sim, std::uint64_t AgentStats::*counter) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    sum += sim.agent(i).stats().*counter;
  }
  return sum;
}

TEST(GossipDeltaSim, ConvergesLikeTextModeAndSendsDeltas) {
  GossipSimOptions options;
  options.members = 12;
  options.realistic_meta = true;
  GossipSim sim(options);

  const int rounds = sim.run_until([&] { return sim.converged(); }, 20);
  ASSERT_GE(rounds, 0) << "group never converged";
  // Joins ride anti-entropy syncs: join detection must stay within the
  // full-table bound.
  EXPECT_LE(rounds, 15);

  for (int i = 0; i < 10; ++i) sim.run_round();
  expect_identical_views(sim);
  EXPECT_GT(sum_of(sim, &AgentStats::digest_rows_sent), 0u)
      << "joins must have pulled rows";

  // The full-table baseline: every exchange shipping all 12 members with
  // their metadata blocks, in both directions.
  const std::uint64_t table_bytes = full_table_bytes(sim, 0);

  // Steady state: each message names only its sender, by id.
  const std::uint64_t before = sim.total_bytes_out();
  const std::uint64_t sends_before = sum_of(sim, &AgentStats::sends);
  for (int i = 0; i < 10; ++i) sim.run_round();
  const std::uint64_t steady_bytes = sim.total_bytes_out() - before;
  const std::uint64_t baseline_bytes =
      (sum_of(sim, &AgentStats::sends) - sends_before) * 2 * table_bytes;
  EXPECT_LT(steady_bytes * 5, baseline_bytes)
      << "steady-state traffic should be a small fraction of full-table "
         "traffic (steady=" << steady_bytes
      << " full tables=" << baseline_bytes << ")";
}

TEST(GossipDeltaSim, SteadyStateCostIsLinearInGroupSize) {
  // A settled group moves no rows: every message names only its sender,
  // by id, so bytes per member per round do not grow with the group.
  const auto steady_cost = [](std::size_t members) {
    GossipSimOptions options;
    options.members = members;
    options.fanout = 3;
    options.realistic_meta = true;
    GossipSim sim(options);
    EXPECT_GE(sim.run_until([&] { return sim.converged(); }, 60), 0)
        << members << " members never converged";
    for (int i = 0; i < 20; ++i) sim.run_round();  // news retires
    // A whole number of seed-probe periods, so both sizes see as many.
    const int kRounds = 3 * static_cast<int>(Agent::kSeedProbePeriod);
    const std::uint64_t rows = sum_of(sim, &AgentStats::digest_rows_sent);
    const std::uint64_t bytes = sim.total_bytes_out();
    for (int i = 0; i < kRounds; ++i) sim.run_round();
    EXPECT_EQ(sum_of(sim, &AgentStats::digest_rows_sent) - rows, 0u)
        << members << " members: a steady round piggybacked rows";
    return static_cast<double>(sim.total_bytes_out() - bytes) /
           static_cast<double>(members * kRounds);
  };
  const double at64 = steady_cost(64);
  const double at128 = steady_cost(128);
  EXPECT_NEAR(at128, at64, 0.1 * at64)
      << "bytes per member per round: " << at64 << " at 64 members, " << at128
      << " at 128";
  // A settled message names its sender by id and carries no row: a ping
  // and its ack, plus a seed probe every few rounds, stay below one
  // metadata-bearing row.
  for (const double cost : {at64, at128}) {
    EXPECT_LE(cost, 60.0) << "bytes per member per round: " << at64
                           << " at 64 members, " << at128 << " at 128";
  }
}

TEST(GossipDeltaSim, MetadataChangeAfterTheRowWindowReachesEveryTable) {
  // Long after a member's own row stopped travelling, a new metadata value
  // bumps its incarnation and its row is news again: under 10% loss it
  // still reaches every member's table within 15 rounds.
  for (const std::uint64_t loss_seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("loss seed " + std::to_string(loss_seed));
    GossipSimOptions options;
    options.members = 10;
    options.fanout = 3;
    options.realistic_meta = true;
    GossipSim sim(options);
    ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
    for (int i = 0; i < 10; ++i) sim.run_round();
    const std::uint64_t rows = sum_of(sim, &AgentStats::digest_rows_sent);
    sim.run_round();
    ASSERT_EQ(sum_of(sim, &AgentStats::digest_rows_sent), rows)
        << "every member's row window has passed";

    sim.fabric.set_loss(0.10, loss_seed);
    const std::size_t mover = 4;
    const std::string xml = "gm4.example:9651";
    sim.agent(mover).set_self_meta("xml", xml);
    const auto everyone_holds_it = [&] {
      for (std::size_t i = 0; i < sim.size(); ++i) {
        const auto entry = sim.agent(i).member(GossipSim::name_of(mover));
        if (!entry) return false;
        const auto it = entry->meta.find("xml");
        if (it == entry->meta.end() || it->second != xml) return false;
      }
      return true;
    };
    const int rounds = sim.run_until(everyone_holds_it, 30);
    ASSERT_GE(rounds, 0) << "the new metadata never reached every table";
    EXPECT_LE(rounds, 15);
  }
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
  // enough for each side to drop the other: healing then pulls the lost
  // members back through syncs paged at the cap.
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
    const std::uint64_t joined = sum_of(sim, &AgentStats::full_resyncs);

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

    // Healing costs some syncs; once the views agree the digests match,
    // and syncs stop for good.
    const std::uint64_t healed = sum_of(sim, &AgentStats::full_resyncs);
    EXPECT_LE(healed - joined, 2 * sim.size() * (sim.size() - 1));
    for (int i = 0; i < 10; ++i) step();
    EXPECT_EQ(sum_of(sim, &AgentStats::full_resyncs), healed)
        << "syncs keep running after the views agree";
  }
}

TEST(GossipDeltaSim, RestartForcesResyncNotDivergence) {
  GossipSimOptions options;
  options.members = 8;
  options.realistic_meta = true;
  GossipSim sim(options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  for (int i = 0; i < 5; ++i) sim.run_round();

  // A restarted process knows only its seed: it pulls the table back
  // through syncs, and must never be left with a partial table.
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
  // A cap far below the table: every sync ships the page that fits and
  // the next page follows on the next tick.  The group must converge as
  // if uncapped.
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
    options.realistic_meta = true;  // ~90 bytes per row
    options.max_digest_bytes = c.cap;
    GossipSim sim(options);
    ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 15), 0)
        << "paged syncs must not hold up convergence";
    for (int i = 0; i < 10; ++i) sim.run_round();
    expect_identical_views(sim);
    EXPECT_GT(full_table_bytes(sim, 0), c.cap)
        << "the table must not fit one message";
  }
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
