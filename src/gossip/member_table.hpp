// Gossip membership table: the soft state every federated gmetad keeps.
//
// Each member holds one row per known peer — (id, address, incarnation,
// state, metadata, local time of the last state change) — and two
// operations maintain it:
//
//  * merge(): fold a received row in.  Rows for one member are ordered by
//    precedence: the higher incarnation wins, and at equal incarnations
//    LEFT > DEAD > SUSPECT > ALIVE.  So ALIVE(i) beats SUSPECT or DEAD(j)
//    iff i > j, SUSPECT(i) beats ALIVE(j) iff i ≥ j, DEAD(i) beats ALIVE
//    or SUSPECT(j) iff i ≥ j, and LEFT(i) beats any other state iff i ≥ j.
//    A row about ourselves that would beat our own is a doubt (or news of
//    a later life of ours): we refute it by taking its incarnation + 1.
//    Unknown members join only ALIVE; news of an unknown member's doubt
//    or departure is stale.  A failed probe's verdict is merged the same
//    way, as a SUSPECT row at the probed incarnation.  Only rows that
//    could travel are merged (wire_row_ok): never DEAD, and never a doubt
//    its subject could not outrank.
//
//  * advance(): the local timers.  SUSPECT turns DEAD after
//    t_fail + t_cleanup; DEAD and LEFT rows are dropped t_cleanup later (a
//    healed partition re-learns the member as a fresh join).  DEAD is a
//    local verdict: no message can convict a member, so `died` fires only
//    here, on the thread that drives the timers.
//
// State transitions are reported as MemberEvents so the failover
// controller and the dynamic-topology layer react to *edges* (ALIVE→DEAD)
// rather than polling levels — that is what makes "promote once, demote
// once" enforceable.
//
// The table also keeps its digest, the XOR of row_hash over every row:
// two members with equal digests hold the same rows, up to the difference
// between SUSPECT and DEAD, which each member times on its own clock.
//
// The table itself is not synchronised; the owning Agent serialises access.
#pragma once

#include <initializer_list>
#include <map>
#include <vector>

#include "gossip/message.hpp"

namespace ganglia::gossip {

struct MemberEvent {
  enum class Kind {
    joined,     ///< previously unknown (or departed) member appeared ALIVE
    recovered,  ///< SUSPECT/DEAD member refuted with a fresh incarnation
    suspected,  ///< a SUSPECT row we accepted (ours or a peer's)
    died,       ///< t_fail + t_cleanup after suspicion (local timer only)
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

/// The 64-bit hash of one version of a row — its id, incarnation and
/// verdict (ALIVE; SUSPECT or DEAD; LEFT) — that digests and sync
/// requests are built on.
std::uint64_t row_hash(const MemberEntry& row) noexcept;

/// Precedence: does `a` override `b`, two rows for the same member?
bool overrides(const MemberEntry& a, const MemberEntry& b) noexcept;

class MemberTable {
 public:
  /// `self` is our own row: id, address, starting incarnation, metadata.
  explicit MemberTable(MemberEntry self);

  // -- self ----------------------------------------------------------------
  const MemberEntry& self() const { return members_.at(self_id_); }
  const std::string& self_id() const noexcept { return self_id_; }
  /// A new address or metadata value bumps our incarnation, so the new row
  /// outranks every copy of the old one.
  void set_self_meta(const std::string& key, std::string value);
  void set_self_address(std::string address);
  /// Mark ourselves LEFT (announced by the agent's leave pings).
  void leave_self(TimeUs now);

  // -- gossip --------------------------------------------------------------
  /// Fold one remote row in; transition events are appended to `events`.
  /// True when our row for a known peer changed: that is news.  Joins are
  /// not, and our own refutations are the agent's to send (our row leads
  /// our next messages whenever it changes).
  bool merge(const MemberEntry& theirs, TimeUs now,
             std::vector<MemberEvent>& events);

  /// Run the local timers (SUSPECT → DEAD → dropped, LEFT → dropped).
  void advance(TimeUs now, TimeUs t_fail, TimeUs t_cleanup,
               std::vector<MemberEvent>& events);

  // -- views ---------------------------------------------------------------
  /// Every row, self included, in id order (the order sync pages walk).
  const std::map<std::string, MemberEntry>& rows() const noexcept {
    return members_;
  }
  /// Everything, self included (the /api/v1/members payload).
  std::vector<MemberEntry> snapshot() const;
  const MemberEntry* find(const std::string& id) const;
  /// (id, address) of the peers in any of `states`.
  std::vector<PeerRef> peers(std::initializer_list<MemberState> states) const;
  std::size_t alive_count() const;  ///< self included
  std::size_t size() const noexcept { return members_.size(); }
  /// XOR of row_hash over every row, self included.
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::string self_id_;
  std::map<std::string, MemberEntry> members_;
  std::uint64_t digest_ = 0;
};

}  // namespace ganglia::gossip
