// The membership row every gossip agent keeps and exchanges.
//
// A row is (id, address, incarnation, heartbeat, state, metadata).
// Digests (gossip/delta.hpp) carry ALIVE rows and LEFT tombstones only:
// SUSPECT/DEAD verdicts are *local* judgements and are never gossiped —
// forwarding them would let one slow link convict a live member everywhere
// (the Group-Membership-List exemplar's rule).  Metadata carries the
// federation payload (source name, XML address, parent aggregator,
// authority URL).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/clock.hpp"

namespace ganglia::gossip {

enum class MemberState { alive, suspect, dead, left };

constexpr const char* member_state_name(MemberState s) noexcept {
  switch (s) {
    case MemberState::alive: return "ALIVE";
    case MemberState::suspect: return "SUSPECT";
    case MemberState::dead: return "DEAD";
    case MemberState::left: return "LEFT";
  }
  return "UNKNOWN";
}

/// One row of the membership table.  `(incarnation, heartbeat)` orders
/// versions: heartbeats progress within a lifetime, the incarnation bumps
/// across restarts (so a rebooted member's fresh heartbeat still wins).
struct MemberEntry {
  std::string id;       ///< stable member id (the gmetad's grid name)
  std::string address;  ///< gossip endpoint ("host:port")
  std::uint64_t incarnation = 0;
  std::uint64_t heartbeat = 0;
  MemberState state = MemberState::alive;
  /// Local receipt time of the last heartbeat progress — never gossiped;
  /// every member times out its peers on its own clock.
  TimeUs local_time_us = 0;
  /// Local change-tracking (table seq at the last mutation / the last
  /// address-or-metadata mutation) — never gossiped; the delta codec uses
  /// `version` to pick changed rows and `fields_version` to decide when a
  /// peer already holds the current address/metadata.
  std::uint64_t version = 0;
  std::uint64_t fields_version = 0;
  /// Advertised metadata (source=, xml=, parent=, authority=...).
  std::map<std::string, std::string> meta;

  /// Version order: does `other` carry fresher liveness evidence?
  bool older_than(const MemberEntry& other) const noexcept {
    return incarnation < other.incarnation ||
           (incarnation == other.incarnation && heartbeat < other.heartbeat);
  }
};

/// Hard caps on one digest: rows per digest and payload bytes.  A table
/// larger than either ships in chunks across exchanges (gossip/agent.hpp).
inline constexpr std::size_t kMaxDigestEntries = 4096;
inline constexpr std::size_t kMaxDigestBytes = 4u << 20;

}  // namespace ganglia::gossip
