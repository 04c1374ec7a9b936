// Gossip protocol driver: one federated gmetad's membership agent.
//
// Modelled on the Group-Membership-List exemplar's three-layer stack: the
// agent is the P2P layer, net::Transport the EmulNet below it, and the
// gmetad daemon (or a deterministic sim loop) the application above.  Each
// tick() the agent
//
//   1. advances its own heartbeat and runs the failure-detection timers
//      (t_fail → SUSPECT, +t_cleanup → DEAD, +t_cleanup → dropped);
//   2. push-pull gossips its table with `fanout` ALIVE peers: write
//      digest, read the peer's digest back, merge both ways;
//   3. sends one *resurrection probe* when it has reason to doubt its view
//      — to a random SUSPECT/DEAD address whenever any exist (so a healed
//      partition reconverges: both sides keep dialling the members they
//      convicted), and to a seed every kSeedProbePeriod rounds otherwise
//      (so a fully pruned view can rediscover the group).
//
// Wire.  Every exchange is a GGD1 binary digest session
// (gossip/delta.hpp): a per-peer cursor remembers what the peer last
// acknowledged and each exchange carries only the rows that changed since,
// resyncing to a self-contained full table whenever either side detects a
// gap — the fed::apply state machine applied to membership.  A full too
// big for one digest ships its covered prefix and continues as deltas.
// Cursors only pay off against peers we revisit, so fanout targets are
// *rendezvous-stable partners*: each node ranks its alive peers by a
// pairwise hash and gossips with its top `fanout` — still a random graph
// across the grid (so dissemination keeps its log-n diameter) but stable
// between rounds, which is what keeps every steady-state exchange down to
// the handful of rows that actually changed.
//
// Crossing fulls.  Two agents whose ticks coincide may each send the
// other a full at once.  Each full starts a fresh dictionary epoch, so if
// each side answered the other's full with a fresh full of its own, every
// reply would overwrite the epoch its own request carries and neither
// cursor would ever settle.  While our full to a peer is in flight, that
// peer's request is therefore answered with the same full (same epoch,
// same rows) under a fresh ack: the peer still gets our table, and
// whichever copy it acks establishes the cursor.
//
// A carrier hook lets digests piggyback on out-of-band channels: when set
// (the gmetad wires it to its federation poll sessions), exchanges are
// offered to the carrier first and only dial a fresh gossip connection
// when no carrier channel exists for that peer.
//
// Completeness: every live member independently times out every silent
// peer, so every join, failure, and leave is eventually detected
// everywhere — message loss delays dissemination but cannot mask a
// failure, because detection needs no message at all.  Accuracy: a false
// suspicion lasts only until any digest carrying heartbeat progress
// arrives, and SUSPECT verdicts are never gossiped, so one member's slow
// link convicts nobody else.
//
// Driving: call tick() from a deterministic loop (sim tests, benches) or
// from the gmetad daemon scheduler.  The agent owns no listener and no
// thread: inbound exchanges arrive through service(), which the in-memory
// fabric calls directly and the gmetad serves on its gossip port (a
// net::ServiceServer port framed by request_end()).  Simulated and real
// deployments share every line of protocol code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "gossip/delta.hpp"
#include "gossip/member_table.hpp"
#include "net/service_server.hpp"
#include "net/transport.hpp"

namespace ganglia::gossip {

struct AgentOptions {
  std::string id;                  ///< stable member id (grid name)
  std::string address;             ///< gossip bind/advertise address
  std::vector<std::string> seeds;  ///< bootstrap + seed-probe addresses
  TimeUs interval_us = 2 * kMicrosPerSecond;
  std::size_t fanout = 3;
  TimeUs t_fail_us = 20 * kMicrosPerSecond;
  TimeUs t_cleanup_us = 20 * kMicrosPerSecond;
  TimeUs connect_timeout_us = kMicrosPerSecond;
  std::uint64_t rng_seed = 0x676f73736970ULL;
  /// Initial self metadata (source=, xml=, parent=, authority=...).
  std::map<std::string, std::string> meta;

  // -- digest sessions ------------------------------------------------------
  /// Ignored: every exchange is a binary digest session.  Kept only
  /// because the perfbench membership workload still assigns it; delete
  /// the field together with that assignment.
  bool delta = true;
  /// Per-exchange digest payload cap; a digest that would pass it ships
  /// the prefix of rows that fits and the rest follows as deltas.
  std::size_t max_digest_bytes = kMaxDigestBytes;
  /// Frame chunking bound for digest payloads (fed::Publisher-style).
  std::size_t max_frame = 64u << 10;
  /// Cursor/session LRU floor, each direction.  The effective cap is
  /// max(max_sessions, member count): sessions are per-peer protocol state,
  /// so evicting below the membership size thrashes (every eviction costs a
  /// full-table resync on the peer's next exchange).
  std::size_t max_sessions = 64;
};

struct AgentStats {
  std::uint64_t rounds = 0;
  std::uint64_t sends = 0;           ///< outbound exchanges attempted
  std::uint64_t send_failures = 0;   ///< connect/write/read failures
  std::uint64_t digests_received = 0;
  std::uint64_t bytes_out = 0;       ///< digest bytes written (both roles)
  std::uint64_t bytes_in = 0;        ///< digest bytes read (both roles)

  // -- digest sessions ------------------------------------------------------
  std::uint64_t digests_delta_sent = 0;  ///< incremental digests encoded
  std::uint64_t digests_full_sent = 0;   ///< self-contained fulls encoded
  std::uint64_t digest_rows_sent = 0;    ///< rows across all digests
  std::uint64_t digest_rows_suppressed = 0;  ///< echoes the peer already holds
  std::uint64_t full_resyncs = 0;    ///< established cursors invalidated
  std::uint64_t digest_rejects = 0;  ///< inbound digests refused -> resync
  std::uint64_t digest_truncations = 0;  ///< fulls and deltas cut at a cap
  std::uint64_t piggyback_exchanges = 0; ///< exchanges via the carrier
};

/// One sender-side cursor, as exposed on /api/v1/members.
struct PeerSessionView {
  std::string peer;   ///< member id
  std::string mode;   ///< "delta" | "full" (resync pending)
  std::uint64_t acked_seq = 0;
  std::uint64_t rows_sent = 0;
  std::uint64_t resyncs = 0;
};

class Agent {
 public:
  using EventHandler = std::function<void(const MemberEvent&)>;
  /// Out-of-band digest channel: given a peer's gossip address and an
  /// encoded digest payload, perform one request/response exchange (the
  /// gmetad routes this over its federation poll stream).  Returns nullopt
  /// when no channel exists for that peer — the agent then dials directly.
  using Carrier = std::function<std::optional<Result<std::string>>(
      const std::string& peer_address, const std::string& request_payload)>;

  Agent(AgentOptions options, net::Transport& transport, Clock& clock);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// One gossip round: heartbeat, timers, fanout exchanges, probe.
  void tick();

  /// Receiver side of one exchange: framed digest frames in, framed reply
  /// out.  Usable directly as an in-memory service.
  Result<std::string> handle_request(std::string_view request);
  /// One decoded payload in, one payload out.  This is what the
  /// federation publisher's digest hook calls.
  Result<std::string> handle_digest_payload(std::string_view payload);
  net::ServiceFn service();
  /// The gossip port's request-boundary rule: framed_request_end within
  /// max_frame and max_digest_bytes.
  net::RequestEnd request_end(std::string_view unread,
                              net::ScanState& scan) const;

  /// Broadcast a LEFT tombstone (best effort) — call before shutdown.
  void leave();

  // -- views ---------------------------------------------------------------
  std::vector<MemberEntry> members() const;
  std::optional<MemberEntry> member(const std::string& id) const;
  std::size_t alive_count() const;
  AgentStats stats() const;
  std::vector<PeerSessionView> peer_sessions() const;
  const AgentOptions& options() const noexcept { return options_; }

  void set_self_meta(const std::string& key, std::string value);
  /// Advertise `address` as this member's gossip address (the bound port,
  /// once an ephemeral one resolves).
  void set_self_address(std::string address);
  /// Transitions are dispatched outside the table lock, on whichever
  /// thread drove the merge (a tick, or a peer's exchange).
  void set_event_handler(EventHandler handler);
  void set_carrier(Carrier carrier);

  /// Seed-probe cadence when the view is healthy (every Nth round).
  static constexpr std::uint64_t kSeedProbePeriod = 8;

 private:
  /// One planned exchange: where to and what to send.
  struct Outbound {
    PeerRef target;  ///< id empty when dialling an unknown seed address
    std::string payload;
  };
  /// Sender half of one digest-delta session: what this peer acknowledged.
  struct SenderCursor {
    std::uint64_t epoch = 0;       ///< dictionary generation (0 = unset)
    bool established = false;      ///< peer acked a digest of this epoch
    std::uint64_t acked_seq = 0;   ///< table seq the peer applied through
    std::uint64_t acked_names = 0; ///< dictionary prefix the peer holds
    std::map<std::string, std::uint32_t> ids;  ///< member id -> dict id
    /// Our full to this peer while its exchange is under way (see
    /// "Crossing fulls" above).
    std::optional<BinaryDigest> full_in_flight;
    std::uint64_t rows_sent = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t last_used = 0;
  };
  /// Receiver half: the state a sender's stream has been applied into.
  struct ReceiverSession {
    std::uint64_t epoch = 0;
    bool valid = false;
    std::uint64_t applied_seq = 0;
    std::vector<std::string> names;  ///< dict id -> member id
    /// Members dropped from our table since their fields were applied —
    /// a later row may not fill its address/meta from the (rejoined,
    /// possibly stale) local row; it must carry fields or force a resync.
    std::set<std::string> tainted;
    /// Liveness evidence the peer itself sent us — a lower bound on what
    /// they hold.  build_digest_locked suppresses rows at or below this
    /// bound: the peer's merge() would reject the echo anyway.  Without
    /// it, push-pull carries every row across each link twice (once in
    /// the request, again reflected in the reply).  A resync from the
    /// peer clears it: the peer may have dropped members since.
    struct Heard {
      std::uint64_t incarnation = 0;
      std::uint64_t heartbeat = 0;
      bool left = false;
    };
    std::unordered_map<std::string, Heard> heard;
    std::uint64_t last_used = 0;
  };

  /// Pick this round's exchange targets (fanout + probe).
  std::vector<PeerRef> pick_targets();
  /// Rendezvous-stable partners, cached per alive-set.
  const std::vector<PeerRef>& stable_partners();
  std::size_t session_cap_locked() const;
  SenderCursor& touch_cursor(const std::string& peer_id);
  ReceiverSession& touch_rx(const std::string& sender_id);
  /// Would `peer`'s merge() provably reject `entry` given what they have
  /// already sent us?  (Echo suppression — see ReceiverSession::heard.)
  static bool peer_holds(const ReceiverSession& rx, const MemberEntry& entry);
  /// Build the next digest for `peer_id` (delta against the cursor, or a
  /// full) and update send-side stats.  Empty id = one-shot full.
  BinaryDigest build_digest_locked(const std::string& peer_id);
  /// Encode the digest for `target` and, when it is a full, keep it in
  /// flight until exchange_with() has the reply.
  Outbound plan_exchange_locked(PeerRef target);
  void apply_ack_locked(const std::string& peer_id, const DigestAck& ack);
  /// Strict applier: resolve + merge, or reject wholesale (never partial).
  bool apply_body_locked(const BinaryDigest& digest,
                         std::vector<MemberEvent>& events);
  DigestAck rx_ack_locked(const std::string& sender_id) const;
  void exchange_with(const Outbound& out);
  /// Send `out` over the carrier, or else a direct dial; the reply payload.
  Result<std::string> round_trip(const Outbound& out, bool& carried);
  void dispatch(std::vector<MemberEvent>& events);

  AgentOptions options_;
  net::Transport& transport_;
  Clock& clock_;

  mutable std::mutex mutex_;  ///< guards table_, stats_, rng_, sessions
  MemberTable table_;
  AgentStats stats_;
  Rng rng_;
  std::map<std::string, SenderCursor> cursors_;  ///< by peer id
  std::map<std::string, ReceiverSession> rx_;    ///< by sender id
  std::uint64_t session_use_ = 0;                ///< LRU clock
  std::uint64_t partners_version_ = 0;
  bool partners_valid_ = false;
  std::vector<PeerRef> partners_;

  std::mutex handler_mutex_;
  EventHandler handler_;
  Carrier carrier_;
};

}  // namespace ganglia::gossip
