#include "gossip/member_table.hpp"

#include <utility>

namespace ganglia::gossip {

namespace {

/// Tie-break at equal incarnations: the graver verdict wins.
int rank(MemberState state) noexcept {
  switch (state) {
    case MemberState::alive: return 0;
    case MemberState::suspect: return 1;
    case MemberState::dead: return 2;
    case MemberState::left: return 3;
  }
  return 0;
}

MemberEvent::Kind transition(MemberState from, MemberState to) noexcept {
  switch (to) {
    case MemberState::alive:
      return from == MemberState::left ? MemberEvent::Kind::joined
                                       : MemberEvent::Kind::recovered;
    case MemberState::suspect: return MemberEvent::Kind::suspected;
    case MemberState::dead: return MemberEvent::Kind::died;
    case MemberState::left: return MemberEvent::Kind::left;
  }
  return MemberEvent::Kind::joined;
}

/// Raise our own incarnation, which stops at kMaxIncarnation.
void bump(MemberEntry& self) noexcept {
  if (self.incarnation < kMaxIncarnation) ++self.incarnation;
}

}  // namespace

std::uint64_t row_hash(const MemberEntry& row) noexcept {
  // FNV-1a 64 over the id, then the incarnation and the verdict folded in
  // through the SplitMix64 finalizer, so XORed digests stay well mixed
  // even for rows that differ in one bit.
  const auto mix = [](std::uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  };
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : row.id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // SUSPECT and DEAD are one verdict: the wire carries DEAD as SUSPECT.
  const std::uint64_t verdict = row.state == MemberState::alive  ? 0
                                : row.state == MemberState::left ? 2
                                                                 : 1;
  return mix(mix(mix(h) ^ row.incarnation) ^ verdict);
}

bool overrides(const MemberEntry& a, const MemberEntry& b) noexcept {
  if (a.incarnation != b.incarnation) return a.incarnation > b.incarnation;
  return rank(a.state) > rank(b.state);
}

MemberTable::MemberTable(MemberEntry self) : self_id_(self.id) {
  self.state = MemberState::alive;
  digest_ = row_hash(self);
  members_.emplace(self_id_, std::move(self));
}

void MemberTable::set_self_meta(const std::string& key, std::string value) {
  MemberEntry& self = members_.at(self_id_);
  auto it = self.meta.find(key);
  if (it != self.meta.end() && it->second == value) return;
  self.meta[key] = std::move(value);
  digest_ ^= row_hash(self);
  bump(self);
  digest_ ^= row_hash(self);
}

void MemberTable::set_self_address(std::string address) {
  MemberEntry& self = members_.at(self_id_);
  if (self.address == address) return;
  self.address = std::move(address);
  digest_ ^= row_hash(self);
  bump(self);
  digest_ ^= row_hash(self);
}

void MemberTable::leave_self(TimeUs now) {
  MemberEntry& self = members_.at(self_id_);
  digest_ ^= row_hash(self);
  self.state = MemberState::left;
  self.local_time_us = now;
  digest_ ^= row_hash(self);
}

bool MemberTable::merge(const MemberEntry& theirs, TimeUs now,
                        std::vector<MemberEvent>& events) {
  // Only rows that could travel: DEAD is reached on our own timer alone.
  if (!wire_row_ok(theirs.state, theirs.incarnation)) return false;
  if (theirs.id == self_id_) {
    // Refutation: a row that would override ours is either a doubt at or
    // above our incarnation or a later life of ours still circulating.
    // Outrank it.  Having left, we stay gone; and a forged row at
    // kMaxIncarnation leaves no room, but it is no doubt either.
    MemberEntry& self = members_.at(self_id_);
    if (self.state == MemberState::left || !overrides(theirs, self) ||
        theirs.incarnation == kMaxIncarnation) {
      return false;
    }
    digest_ ^= row_hash(self);
    self.incarnation = theirs.incarnation + 1;
    digest_ ^= row_hash(self);
    return false;
  }

  auto it = members_.find(theirs.id);
  if (it == members_.end()) {
    // Only the living join: a doubt or a departure of a member we do not
    // hold is news of one we already dropped, or never needed.
    if (theirs.state != MemberState::alive) return false;
    MemberEntry& entry = members_.emplace(theirs.id, theirs).first->second;
    entry.local_time_us = now;
    digest_ ^= row_hash(entry);
    events.push_back({MemberEvent::Kind::joined, entry});
    return false;
  }

  MemberEntry& ours = it->second;
  if (!overrides(theirs, ours)) return false;
  const MemberState was = ours.state;
  digest_ ^= row_hash(ours);
  ours.address = theirs.address;
  ours.incarnation = theirs.incarnation;
  ours.meta = theirs.meta;
  ours.state = theirs.state;
  ours.local_time_us = now;
  digest_ ^= row_hash(ours);
  if (was != ours.state) events.push_back({transition(was, ours.state), ours});
  return true;
}

void MemberTable::advance(TimeUs now, TimeUs t_fail, TimeUs t_cleanup,
                          std::vector<MemberEvent>& events) {
  for (auto it = members_.begin(); it != members_.end();) {
    MemberEntry& entry = it->second;
    const TimeUs since = now - entry.local_time_us;
    if (entry.id != self_id_ && entry.state == MemberState::suspect &&
        since >= t_fail + t_cleanup) {
      entry.state = MemberState::dead;
      entry.local_time_us = now;
      events.push_back({MemberEvent::Kind::died, entry});
    } else if (entry.id != self_id_ &&
               (entry.state == MemberState::dead ||
                entry.state == MemberState::left) &&
               since >= t_cleanup) {
      // Post-mortem retention kept the row visible (members route,
      // failover) for t_cleanup; now it goes for good.
      events.push_back({MemberEvent::Kind::removed, entry});
      digest_ ^= row_hash(entry);
      it = members_.erase(it);
      continue;
    }
    ++it;
  }
}

std::vector<MemberEntry> MemberTable::snapshot() const {
  std::vector<MemberEntry> out;
  out.reserve(members_.size());
  for (const auto& [id, entry] : members_) {
    (void)id;
    out.push_back(entry);
  }
  return out;
}

const MemberEntry* MemberTable::find(const std::string& id) const {
  const auto it = members_.find(id);
  return it == members_.end() ? nullptr : &it->second;
}

std::vector<PeerRef> MemberTable::peers(
    std::initializer_list<MemberState> states) const {
  std::vector<PeerRef> out;
  for (const auto& [id, entry] : members_) {
    if (id == self_id_) continue;
    for (const MemberState state : states) {
      if (entry.state == state) {
        out.push_back({id, entry.address});
        break;
      }
    }
  }
  return out;
}

std::size_t MemberTable::alive_count() const {
  std::size_t n = 0;
  for (const auto& [id, entry] : members_) {
    (void)id;
    if (entry.state == MemberState::alive) ++n;
  }
  return n;
}

}  // namespace ganglia::gossip
