// Gossip protocol driver: one federated gmetad's membership agent.
//
// The protocol is SWIM (Das, Gupta and Motivala, DSN 2002): failure
// detection by probing, state changes piggybacked on the probes, and an
// anti-entropy sync for members a peer lacks.  The agent is the P2P layer
// of the Group-Membership-List exemplar's three-layer stack, net::Transport
// the EmulNet below it, and the gmetad daemon (or a deterministic sim loop)
// the application above.  Each tick() the agent
//
//   1. runs the local timers (SUSPECT → DEAD after t_fail + t_cleanup,
//      DEAD and LEFT rows dropped t_cleanup later);
//   2. pings the next member of a round-robin over its ALIVE and SUSPECT
//      peers: the ring of members in id order, rotated by one more place
//      each protocol period, so members holding the same view probe every
//      member exactly once per period.  When the ping fails it asks
//      `fanout` random ALIVE members to ping the target for it (ping-req);
//      when every one of them fails too, the target becomes SUSPECT;
//   3. pings one DEAD address while DEAD rows exist (so a healed partition
//      reconverges), or else a seed every kSeedProbePeriod ticks (so a
//      pruned view can rediscover the group);
//   4. pulls one page of a pending anti-entropy sync.
//
// News.  Every change to a known member's row — a suspicion, a leave, a
// refutation, a new address or metadata — is queued and piggybacked on
// every ping, ack, ping-req and nack, least-sent first and within the
// message cap, until it has gone out 3·⌈log10(n+1)⌉ times.  DEAD is not
// news: each member reaches it on its own timer, and a DEAD row travels as
// the SUSPECT row behind it, so no message can convict anyone.  A message
// to a member we hold SUSPECT or DEAD leads with that member's own row, as
// SUSPECT, so it can refute.  Our own row is news after each change to it
// (our start, a refutation, a new address or metadata, our leave): it
// leads the rows of our next 3·⌈log10(n+1)⌉ messages of any kind, and it
// rides every sync request we send.  Otherwise a message names its sender
// by id alone.  In a steady group no row changes, and a message carries no
// row at all: O(1) bytes per member per round.
//
// Trust.  The gossip port admits untrusted peers, so the agent resolves
// every id a message names against its own table and dials only seeds and
// addresses it holds: an address enters the table only through a row (by
// precedence) or a seed.  A ping-req names its target by id, and is
// honoured only for a target we hold, pinged at the address we hold for
// it, and only one at a time (a relay holds a serving thread for up to one
// exchange bound); anything else is nacked without a dial.
//
// Anti-entropy.  Joins are not news.  Every message carries its sender's
// digest, over every row's id, incarnation and verdict; one that differs
// from ours schedules a sync on our next tick.  In a reply, the sync goes
// to the address we dialed; in a request, only to a sender we hold ALIVE
// or SUSPECT, at the address we hold.  A sync request names one page of
// our id order and the hashes of the rows we hold there, and carries our
// own row; the reply carries the rows in that page whose versions we lack,
// so it brings both the members we never heard of and any news we missed.
// We keep paging until a reply reaches the end of the order.  The
// responder answers from the request alone (so syncs served concurrently
// cannot mix pages) and schedules a pull back when the request shows
// versions it lacks.  So a member that dropped us (a healed partition, a
// restarted failover primary) learns our address from the row in our
// sync request and pulls the rest back from there.  A member with no
// ALIVE or SUSPECT peer syncs with a seed.
//
// Completeness: every live member keeps probing every member it holds, so
// a crashed one is suspected within about one round-robin cycle even if
// all news is lost, and its DEAD verdict follows on the local timer.
// Accuracy: a member is suspected only when a direct ping and every
// indirect one fail, and a suspicion reaching the suspect is refuted with
// a fresh incarnation that outranks it everywhere.
//
// A carrier hook lets messages piggyback on out-of-band channels: when set
// (the gmetad wires it to its federation poll sessions), exchanges are
// offered to the carrier first and only dial a fresh gossip connection
// when no carrier channel exists for that peer.
//
// Driving: call tick() from a deterministic loop (sim tests, benches) or
// from the gmetad daemon scheduler.  The agent owns no listener and no
// thread: inbound messages arrive through service(), which the in-memory
// fabric calls directly and the gmetad serves on its gossip port (framed
// by request_end()).  Simulated and real deployments share every line of
// protocol code.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
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
  std::size_t fanout = 3;  ///< indirect probes after a failed ping
  TimeUs t_fail_us = 20 * kMicrosPerSecond;
  TimeUs t_cleanup_us = 20 * kMicrosPerSecond;
  TimeUs connect_timeout_us = kMicrosPerSecond;
  std::uint64_t rng_seed = 0x676f73736970ULL;
  /// Initial self metadata (source=, xml=, parent=, authority=...).
  std::map<std::string, std::string> meta;
  /// Ignored.  Kept only because the perfbench membership workload still
  /// assigns it; delete the field together with that assignment.
  bool delta = true;
  /// Payload cap of every message and sync page.
  std::size_t max_digest_bytes = kMaxDigestBytes;
  /// Frame chunking bound for message payloads (fed::Publisher-style).
  std::size_t max_frame = 64u << 10;
};

struct AgentStats {
  std::uint64_t rounds = 0;
  std::uint64_t sends = 0;           ///< outbound exchanges attempted
  std::uint64_t send_failures = 0;   ///< connect/write/read failures
  std::uint64_t digests_received = 0;
  std::uint64_t bytes_out = 0;       ///< message bytes written (both roles)
  std::uint64_t bytes_in = 0;        ///< message bytes read (both roles)
  /// Rows sent: piggybacked news (our own row while it is news), our own
  /// row in each sync request, and sync pages.
  std::uint64_t digest_rows_sent = 0;
  std::uint64_t full_resyncs = 0;    ///< anti-entropy syncs started
  std::uint64_t piggyback_exchanges = 0; ///< exchanges via the carrier
};

class Agent {
 public:
  using EventHandler = std::function<void(const MemberEvent&)>;
  /// Out-of-band message channel: given a peer's gossip address and an
  /// encoded message payload, perform one request/response exchange (the
  /// gmetad routes this over its federation poll stream).  Returns nullopt
  /// when no channel exists for that peer — the agent then dials directly.
  using Carrier = std::function<std::optional<Result<std::string>>(
      const std::string& peer_address, const std::string& request_payload)>;

  Agent(AgentOptions options, net::Transport& transport, Clock& clock);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// One protocol period: timers, probe, DEAD or seed ping, sync page.
  void tick();

  /// Receiver side of one exchange: framed message in, framed reply out.
  /// Usable directly as an in-memory service.
  Result<std::string> handle_request(std::string_view request);
  /// One decoded payload in, one payload out.  This is what the
  /// federation publisher's digest hook calls.
  Result<std::string> handle_digest_payload(std::string_view payload);
  net::ServiceFn service();
  /// The gossip port's request-boundary rule: framed_request_end within
  /// max_frame and max_digest_bytes.
  net::RequestEnd request_end(std::string_view unread,
                              net::ScanState& scan) const;

  /// Announce a LEFT tombstone to `fanout` members (best effort) — call
  /// before shutdown.
  void leave();

  // -- views ---------------------------------------------------------------
  std::vector<MemberEntry> members() const;
  std::optional<MemberEntry> member(const std::string& id) const;
  std::size_t alive_count() const;
  AgentStats stats() const;
  const AgentOptions& options() const noexcept { return options_; }

  void set_self_meta(const std::string& key, std::string value);
  /// Advertise `address` as this member's gossip address (the bound port,
  /// once an ephemeral one resolves).
  void set_self_address(std::string address);
  /// Transitions are dispatched outside the table lock, in the order they
  /// happened, on whichever thread drove the merge (a tick, or a peer's
  /// message).  The handler must not drive the agent (tick, handle_*).
  void set_event_handler(EventHandler handler);
  void set_carrier(Carrier carrier);

  /// Seed-probe cadence when the view is healthy (every Nth round).
  static constexpr std::uint64_t kSeedProbePeriod = 8;

 private:
  /// An anti-entropy sync in progress: the next page to pull from
  /// `address` (a seed, or an address we dialed or hold).
  struct Sync {
    std::string address;
    std::string from;
  };

  /// This period's probe target, or null when we hold no ALIVE or SUSPECT
  /// peer.
  const MemberEntry* next_probe_locked();
  /// A seed address other than our own, as a peer handle.
  std::optional<PeerRef> pick_seed_locked();
  /// Up to `count` distinct random members of `peers`.
  std::vector<PeerRef> sample_locked(std::vector<PeerRef> peers,
                                     std::size_t count);
  /// A `kind` message from us: our digest and id, and our own row while
  /// it is news.
  Message stamp_locked(MessageKind kind);
  /// A message from us to `receiver_id`, with news piggybacked.
  Message message_locked(MessageKind kind, const std::string& receiver_id,
                         const std::string& target_id = {});
  Message sync_request_locked(const std::string& from);
  Message sync_reply_locked(const Message& request);
  /// Merge one row; a change to a known member becomes news.
  void merge_locked(const MemberEntry& row, TimeUs now);
  /// Merge a message's rows.  True when its digest differs from ours.
  bool absorb_locked(const Message& message);
  /// Sync with member `id` at the address we hold, if we hold it ALIVE or
  /// SUSPECT.
  void sync_with_member_locked(const std::string& id);
  /// Sync at `address`, unless a sync is already pending.
  void schedule_sync_locked(const std::string& address);

  /// Ping `target`, then ping-req through `fanout` members; SUSPECT when
  /// nobody reaches it.
  void probe(const PeerRef& target, std::uint64_t incarnation);
  /// One direct ping.  True when `target` acked.
  bool ping(const PeerRef& target);
  void sync_page(const Sync& sync);
  /// One request/response exchange with `address` (carrier first, else a
  /// dial), with its stats.
  Result<Message> round_trip(const std::string& address,
                             const Message& request);
  /// Send `payload` over the carrier, or else a direct dial; the reply.
  Result<std::string> exchange(const std::string& address,
                               const std::string& payload, bool& carried);
  /// Hand the queued events to the handler, in the order they were made.
  void dispatch();

  AgentOptions options_;
  net::Transport& transport_;
  Clock& clock_;

  mutable std::mutex mutex_;  ///< guards table_ through pending_
  MemberTable table_;
  AgentStats stats_;
  Rng rng_;
  std::map<std::string, unsigned> news_;  ///< member id -> times sent
  /// Our own row's version (row_hash) when it last changed, and how many
  /// messages have carried it since.
  std::uint64_t self_version_ = 0;
  unsigned self_sent_ = 0;
  std::optional<Sync> sync_;
  bool relaying_ = false;  ///< a ping-req relay is in flight
  std::vector<MemberEvent> pending_;  ///< made, not yet handed out

  std::mutex dispatch_mutex_;  ///< held while events are handed out
  std::mutex handler_mutex_;
  EventHandler handler_;
  Carrier carrier_;
};

}  // namespace ganglia::gossip
