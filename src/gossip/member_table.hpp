// Gossip membership table: the soft state every federated gmetad keeps.
//
// Each member holds one row per known peer — (id, address, incarnation,
// heartbeat, local receipt time, state, metadata) — and three operations
// maintain it:
//
//  * merge(): fold a received digest in.  Fresher liveness evidence (higher
//    (incarnation, heartbeat)) wins, refreshes the receipt time, and
//    resurrects SUSPECT/DEAD rows; LEFT tombstones at an equal-or-newer
//    incarnation override ALIVE, so a deliberate leave is never mistaken
//    for a failure.
//
//  * advance(): apply the local failure-detection timers.  A row whose
//    heartbeat has not progressed for t_fail is SUSPECT; t_cleanup later it
//    is DEAD; one more t_cleanup and the row is dropped entirely (a healed
//    partition re-learns the member as a fresh join via the agent's
//    resurrection probes).
//
//  * tick(): advance our own heartbeat.
//
// State transitions are reported as MemberEvents so the failover
// controller and the dynamic-topology layer react to *edges* (ALIVE→DEAD)
// rather than polling levels — that is what makes "promote once, demote
// once" enforceable.
//
// The table itself is not synchronised; the owning Agent serialises access.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "gossip/message.hpp"

namespace ganglia::gossip {

struct MemberEvent {
  enum class Kind {
    joined,     ///< previously unknown member appeared ALIVE
    recovered,  ///< SUSPECT/DEAD member proved alive again
    suspected,  ///< t_fail without heartbeat progress
    died,       ///< t_cleanup after suspicion
    left,       ///< voluntary leave disseminated
    removed,    ///< row dropped after the post-mortem retention window
  };
  Kind kind = Kind::joined;
  MemberEntry entry;  ///< row snapshot *after* the transition
};

constexpr const char* member_event_name(MemberEvent::Kind k) noexcept {
  switch (k) {
    case MemberEvent::Kind::joined: return "joined";
    case MemberEvent::Kind::recovered: return "recovered";
    case MemberEvent::Kind::suspected: return "suspected";
    case MemberEvent::Kind::died: return "died";
    case MemberEvent::Kind::left: return "left";
    case MemberEvent::Kind::removed: return "removed";
  }
  return "unknown";
}

/// (id, address) of one peer — the agent's exchange-target handle.
struct PeerRef {
  std::string id;
  std::string address;
};

class MemberTable {
 public:
  MemberTable(std::string self_id, std::string self_address, TimeUs now);

  // -- self ----------------------------------------------------------------
  const MemberEntry& self() const { return members_.at(self_id_); }
  const std::string& self_id() const noexcept { return self_id_; }
  /// Heartbeat progress for this round.
  void tick_self(TimeUs now);
  void set_self_meta(const std::string& key, std::string value);
  void set_self_address(std::string address);
  /// Mark ourselves LEFT (broadcast by the agent's final digest).
  void leave_self(TimeUs now);

  // -- gossip --------------------------------------------------------------
  /// Fold remote entries in; transition events are appended to `events`.
  void merge(const std::vector<MemberEntry>& remote, TimeUs now,
             std::vector<MemberEvent>& events);

  /// Run the local failure-detection timers.
  void advance(TimeUs now, TimeUs t_fail, TimeUs t_cleanup,
               std::vector<MemberEvent>& events);

  // -- views ---------------------------------------------------------------
  /// Rows worth gossiping (self, ALIVE peers, LEFT tombstones) whose
  /// (incarnation, heartbeat, state, metadata) changed after `floor`,
  /// oldest change first — the digest feed.
  /// Pointers stay valid until the next mutating call.
  std::vector<const MemberEntry*> gossipable_since(std::uint64_t floor) const;
  /// Everything, self included (the /api/v1/members payload).
  std::vector<MemberEntry> snapshot() const;
  const MemberEntry* find(const std::string& id) const;
  /// (id, address) of ALIVE peers.
  std::vector<PeerRef> alive_peers() const;
  /// (id, address) of SUSPECT/DEAD peers.
  std::vector<PeerRef> faulty_peers() const;
  std::size_t alive_count() const;  ///< self included
  std::size_t size() const noexcept { return members_.size(); }

  // -- change tracking ------------------------------------------------------
  /// Monotone mutation counter; every row change gets the next value as
  /// its version, so `gossipable_since(seq-at-last-ack)` is exactly what a
  /// peer has not acknowledged yet.
  std::uint64_t seq() const noexcept { return seq_; }
  /// Bumped whenever the ALIVE peer set (or a live address) changes —
  /// invalidates cached partner selections.
  std::uint64_t membership_version() const noexcept {
    return membership_version_;
  }

 private:
  /// Record a row mutation: assign the next seq as its version and reindex
  /// it in the change log.  `fields` marks an address/metadata change.
  void touch(MemberEntry& entry, bool fields);

  std::string self_id_;
  std::map<std::string, MemberEntry> members_;
  std::uint64_t seq_ = 0;
  std::uint64_t membership_version_ = 0;
  /// version -> member id, the change log gossipable_since() walks.
  std::map<std::uint64_t, std::string> changed_;
};

}  // namespace ganglia::gossip
