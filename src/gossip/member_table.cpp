#include "gossip/member_table.hpp"

#include <algorithm>

namespace ganglia::gossip {

MemberTable::MemberTable(std::string self_id, std::string self_address,
                         TimeUs now)
    : self_id_(std::move(self_id)) {
  MemberEntry self;
  self.id = self_id_;
  self.address = std::move(self_address);
  self.heartbeat = 1;
  self.state = MemberState::alive;
  self.local_time_us = now;
  auto [it, inserted] = members_.emplace(self_id_, std::move(self));
  (void)inserted;
  touch(it->second, /*fields=*/true);
  ++membership_version_;
}

void MemberTable::touch(MemberEntry& entry, bool fields) {
  if (entry.version != 0) changed_.erase(entry.version);
  entry.version = ++seq_;
  if (fields) entry.fields_version = entry.version;
  changed_.emplace(entry.version, entry.id);
}

void MemberTable::tick_self(TimeUs now) {
  MemberEntry& self = members_.at(self_id_);
  ++self.heartbeat;
  self.local_time_us = now;
  touch(self, /*fields=*/false);
}

void MemberTable::set_self_meta(const std::string& key, std::string value) {
  MemberEntry& self = members_.at(self_id_);
  auto it = self.meta.find(key);
  if (it != self.meta.end() && it->second == value) return;
  self.meta[key] = std::move(value);
  touch(self, /*fields=*/true);
}

void MemberTable::set_self_address(std::string address) {
  MemberEntry& self = members_.at(self_id_);
  if (self.address == address) return;
  self.address = std::move(address);
  touch(self, /*fields=*/true);
}

void MemberTable::leave_self(TimeUs now) {
  MemberEntry& self = members_.at(self_id_);
  self.state = MemberState::left;
  ++self.heartbeat;
  self.local_time_us = now;
  touch(self, /*fields=*/false);
  ++membership_version_;
}

void MemberTable::merge(const std::vector<MemberEntry>& remote, TimeUs now,
                        std::vector<MemberEvent>& events) {
  for (const MemberEntry& theirs : remote) {
    if (theirs.id == self_id_) {
      // Refutation: reassert ourselves with a fresh incarnation when a
      // peer doubts us (a LEFT tombstone at our incarnation or beyond) or
      // remembers a *strictly fresher* life of ours (we restarted and the
      // old life's heartbeat is still circulating).  An ALIVE echo at our
      // exact (incarnation, heartbeat) is just our own digest reflected by
      // push-pull — refuting on it would bump the incarnation every
      // exchange, forever.
      MemberEntry& self = members_.at(self_id_);
      const bool doubted = theirs.state != MemberState::alive &&
                           theirs.incarnation >= self.incarnation;
      if (self.state == MemberState::alive &&
          (doubted || self.older_than(theirs))) {
        self.incarnation =
            std::max(self.incarnation, theirs.incarnation) + 1;
        self.local_time_us = now;
        touch(self, /*fields=*/false);
      }
      continue;
    }

    auto it = members_.find(theirs.id);
    if (it == members_.end()) {
      if (theirs.state == MemberState::left) continue;  // stale tombstone
      MemberEntry entry = theirs;
      entry.local_time_us = now;
      entry.version = 0;
      entry.fields_version = 0;
      auto [pos, inserted] = members_.emplace(entry.id, std::move(entry));
      (void)inserted;
      touch(pos->second, /*fields=*/true);
      ++membership_version_;
      events.push_back({MemberEvent::Kind::joined, pos->second});
      continue;
    }

    MemberEntry& ours = it->second;
    if (theirs.state == MemberState::left) {
      // A tombstone at an equal-or-newer incarnation overrides liveness:
      // the member *chose* to go, no failure-detection grace applies.
      if (theirs.incarnation >= ours.incarnation &&
          ours.state != MemberState::left) {
        const bool was_alive = ours.state == MemberState::alive;
        ours.incarnation = theirs.incarnation;
        ours.heartbeat = theirs.heartbeat;
        ours.state = MemberState::left;
        ours.local_time_us = now;
        touch(ours, /*fields=*/false);
        if (was_alive) ++membership_version_;
        events.push_back({MemberEvent::Kind::left, ours});
      }
      continue;
    }
    if (ours.state == MemberState::left) {
      // Rejoin after a leave needs a fresh incarnation; same-incarnation
      // heartbeats are echoes of the pre-leave life.
      if (theirs.incarnation <= ours.incarnation) continue;
      const std::uint64_t version = ours.version;
      ours = theirs;
      ours.version = version;
      ours.fields_version = 0;
      ours.local_time_us = now;
      touch(ours, /*fields=*/true);
      ++membership_version_;
      events.push_back({MemberEvent::Kind::joined, ours});
      continue;
    }
    if (!ours.older_than(theirs)) continue;  // nothing fresher
    const bool was_faulty = ours.state == MemberState::suspect ||
                            ours.state == MemberState::dead;
    const bool fields_changed =
        ours.address != theirs.address || ours.meta != theirs.meta;
    if (was_faulty || ours.address != theirs.address) ++membership_version_;
    ours.incarnation = theirs.incarnation;
    ours.heartbeat = theirs.heartbeat;
    ours.address = theirs.address;
    ours.meta = theirs.meta;
    ours.state = MemberState::alive;
    ours.local_time_us = now;
    touch(ours, fields_changed);
    if (was_faulty) {
      events.push_back({MemberEvent::Kind::recovered, ours});
    }
  }
}

void MemberTable::advance(TimeUs now, TimeUs t_fail, TimeUs t_cleanup,
                          std::vector<MemberEvent>& events) {
  for (auto it = members_.begin(); it != members_.end();) {
    MemberEntry& entry = it->second;
    if (entry.id == self_id_) {
      ++it;
      continue;
    }
    const TimeUs silent = now - entry.local_time_us;
    bool erase = false;
    switch (entry.state) {
      case MemberState::alive:
        if (silent >= t_fail) {
          entry.state = MemberState::suspect;
          ++membership_version_;
          events.push_back({MemberEvent::Kind::suspected, entry});
        }
        break;
      case MemberState::suspect:
        if (silent >= t_fail + t_cleanup) {
          entry.state = MemberState::dead;
          events.push_back({MemberEvent::Kind::died, entry});
        }
        break;
      case MemberState::dead:
        // Post-mortem retention keeps the row visible (members route,
        // failover) for one more t_cleanup, then drops it for good.
        if (silent >= t_fail + 2 * t_cleanup) erase = true;
        break;
      case MemberState::left:
        if (silent >= t_cleanup) erase = true;
        break;
    }
    if (erase) {
      events.push_back({MemberEvent::Kind::removed, entry});
      changed_.erase(entry.version);
      it = members_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<const MemberEntry*> MemberTable::gossipable_since(
    std::uint64_t floor) const {
  std::vector<const MemberEntry*> out;
  for (auto it = changed_.upper_bound(floor); it != changed_.end(); ++it) {
    const auto pos = members_.find(it->second);
    if (pos == members_.end()) continue;  // stale index entry (shouldn't happen)
    const MemberEntry& entry = pos->second;
    if (entry.state == MemberState::alive ||
        entry.state == MemberState::left) {
      out.push_back(&entry);
    }
  }
  return out;
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

std::vector<PeerRef> MemberTable::alive_peers() const {
  std::vector<PeerRef> out;
  for (const auto& [id, entry] : members_) {
    if (id != self_id_ && entry.state == MemberState::alive) {
      out.push_back({id, entry.address});
    }
  }
  return out;
}

std::vector<PeerRef> MemberTable::faulty_peers() const {
  std::vector<PeerRef> out;
  for (const auto& [id, entry] : members_) {
    if (id == self_id_) continue;
    if (entry.state == MemberState::suspect ||
        entry.state == MemberState::dead) {
      out.push_back({id, entry.address});
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
