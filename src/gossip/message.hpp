// The membership row every gossip agent keeps and exchanges.
//
// A row is (id, address, incarnation, state, metadata).  Only the member
// itself raises its incarnation: it starts at the agent's start time, so a
// restarted process outranks its previous life, and it bumps by one to
// refute a doubt about itself or to publish a new address or metadata.
// SUSPECT travels like any other state, and the incarnation precedence
// (gossip/member_table.hpp) and refutation keep one slow link from
// convicting a live member.  DEAD never travels: each member reaches it on
// its own timer, so no message can convict anyone.  Metadata carries the
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

/// One row of the membership table.
struct MemberEntry {
  std::string id;       ///< stable member id (the gmetad's grid name)
  std::string address;  ///< gossip endpoint ("host:port")
  std::uint64_t incarnation = 0;
  MemberState state = MemberState::alive;
  /// Local time of the last state change — never gossiped; every member
  /// runs the SUSPECT → DEAD → dropped timers on its own clock.
  TimeUs local_time_us = 0;
  /// Advertised metadata (source=, xml=, parent=, authority=...).
  std::map<std::string, std::string> meta;
};

/// Hard caps on one message: rows and payload bytes.
inline constexpr std::size_t kMaxDigestEntries = 4096;
inline constexpr std::size_t kMaxDigestBytes = 4u << 20;

/// The highest incarnation a row may carry.  Start times put real ones
/// near 2^51, so only a forged row comes close.  A SUSPECT row must stay
/// below it, so its subject can always outrank the doubt by one.
inline constexpr std::uint64_t kMaxIncarnation = (std::uint64_t{1} << 63) - 1;

/// May a row in `state` at `incarnation` travel?  Not DEAD, a local
/// verdict; not past kMaxIncarnation; and not a doubt that leaves its
/// subject no room to refute it.  The decoder refuses a message holding
/// any other row, the table merges none, and the agent sends its own DEAD
/// verdicts as SUSPECT.
constexpr bool wire_row_ok(MemberState state,
                           std::uint64_t incarnation) noexcept {
  return state != MemberState::dead && incarnation <= kMaxIncarnation &&
         (state != MemberState::suspect || incarnation < kMaxIncarnation);
}

}  // namespace ganglia::gossip
