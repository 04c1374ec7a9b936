#include "gossip/agent.hpp"

#include <algorithm>
#include <utility>

namespace ganglia::gossip {

namespace {

std::uint64_t hash_str(std::string_view s) {
  // FNV-1a 64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t z) {
  // SplitMix64 finalizer.
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Agent::Agent(AgentOptions options, net::Transport& transport, Clock& clock)
    : options_(std::move(options)),
      transport_(transport),
      clock_(clock),
      table_(options_.id, options_.address, clock_.now_us()),
      rng_(options_.rng_seed) {
  for (const auto& [key, value] : options_.meta) {
    table_.set_self_meta(key, std::string(value));
  }
}

Agent::~Agent() = default;

const std::vector<PeerRef>& Agent::stable_partners() {
  // Caller holds mutex_.  Recomputed only when the alive set changes:
  // stable pairings are what give the per-peer cursors something to
  // amortise against, and the pairwise-hash ranking still yields a random
  // graph across the grid (expected degree ~2·fanout), so dissemination
  // keeps the log-n spread of random fanout.
  const std::uint64_t version = table_.membership_version();
  if (partners_valid_ && partners_version_ == version) return partners_;
  partners_valid_ = true;
  partners_version_ = version;
  partners_.clear();
  std::vector<PeerRef> alive = table_.alive_peers();
  const std::size_t k = std::min(options_.fanout, alive.size());
  if (k == 0) return partners_;
  const std::uint64_t self_hash = hash_str(options_.id);
  std::vector<std::pair<std::uint64_t, std::size_t>> scored;
  scored.reserve(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    scored.emplace_back(
        mix64(self_hash ^ (hash_str(alive[i].id) * 0x9e3779b97f4a7c15ULL)), i);
  }
  std::partial_sort(
      scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
      scored.end(), [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < k; ++i) {
    partners_.push_back(std::move(alive[scored[i].second]));
  }
  return partners_;
}

std::vector<PeerRef> Agent::pick_targets() {
  // Caller holds mutex_.
  const std::vector<PeerRef> alive = table_.alive_peers();
  std::vector<PeerRef> targets = stable_partners();

  // Resurrection probe: while any peer stands convicted (or we know no live
  // peer at all), keep dialling the doubted addresses — if the silence was a
  // partition, the first answered probe re-merges both sides.  Otherwise
  // fall back to a periodic seed probe so a pruned table can rediscover the
  // group.
  const std::vector<PeerRef> faulty = table_.faulty_peers();
  if (!faulty.empty()) {
    targets.push_back(
        faulty[rng_.next_below(static_cast<std::uint32_t>(faulty.size()))]);
  } else if (!options_.seeds.empty() &&
             (alive.empty() || stats_.rounds % kSeedProbePeriod == 0)) {
    const std::string& seed = options_.seeds[rng_.next_below(
        static_cast<std::uint32_t>(options_.seeds.size()))];
    const bool already =
        std::any_of(targets.begin(), targets.end(),
                    [&](const PeerRef& t) { return t.address == seed; });
    if (seed != table_.self().address && !already) {
      PeerRef ref{"", seed};
      for (const PeerRef& peer : alive) {
        if (peer.address == seed) {
          ref.id = peer.id;
          break;
        }
      }
      targets.push_back(std::move(ref));
    }
  }
  return targets;
}

// Session capacity: the configured LRU bound is a floor, not a ceiling —
// sessions are per-peer protocol state, so the natural working set is the
// membership itself.  Evicting below that thrashes: every member
// seed-probes on the same cadence, and a seed whose sessions cycle
// answers each prober with a resync, turning O(changed) steady-state
// digests back into full tables.  Memory stays O(n), which the member
// table already is.
std::size_t Agent::session_cap_locked() const {
  return std::max(options_.max_sessions, table_.size());
}

Agent::SenderCursor& Agent::touch_cursor(const std::string& peer_id) {
  auto it = cursors_.find(peer_id);
  if (it == cursors_.end()) {
    if (cursors_.size() >= session_cap_locked()) {
      auto victim = cursors_.begin();
      for (auto i = cursors_.begin(); i != cursors_.end(); ++i) {
        if (i->second.last_used < victim->second.last_used) victim = i;
      }
      cursors_.erase(victim);
    }
    it = cursors_.emplace(peer_id, SenderCursor{}).first;
  }
  it->second.last_used = ++session_use_;
  return it->second;
}

Agent::ReceiverSession& Agent::touch_rx(const std::string& sender_id) {
  auto it = rx_.find(sender_id);
  if (it == rx_.end()) {
    if (rx_.size() >= session_cap_locked()) {
      auto victim = rx_.begin();
      for (auto i = rx_.begin(); i != rx_.end(); ++i) {
        if (i->second.last_used < victim->second.last_used) victim = i;
      }
      rx_.erase(victim);
    }
    it = rx_.emplace(sender_id, ReceiverSession{}).first;
  }
  it->second.last_used = ++session_use_;
  return it->second;
}

DigestAck Agent::rx_ack_locked(const std::string& sender_id) const {
  const auto it = rx_.find(sender_id);
  if (it == rx_.end() || !it->second.valid) return DigestAck{};
  const ReceiverSession& session = it->second;
  return DigestAck{AckKind::cursor, session.epoch, session.applied_seq,
                   session.names.size()};
}

bool Agent::peer_holds(const ReceiverSession& rx, const MemberEntry& entry) {
  const auto it = rx.heard.find(entry.id);
  if (it == rx.heard.end()) return false;
  const ReceiverSession::Heard& heard = it->second;
  if (heard.left) {
    // Tombstoned at the peer: merge() only listens to a fresher-incarnation
    // rejoin; further tombstones and same-life heartbeats are ignored.
    return entry.state == MemberState::left ||
           entry.incarnation <= heard.incarnation;
  }
  if (entry.state == MemberState::left) {
    // merge() honours a tombstone at an equal-or-newer incarnation.
    return entry.incarnation < heard.incarnation;
  }
  // Liveness rows need strictly fresher (incarnation, heartbeat) to land.
  return entry.incarnation < heard.incarnation ||
         (entry.incarnation == heard.incarnation &&
          entry.heartbeat <= heard.heartbeat);
}

BinaryDigest Agent::build_digest_locked(const std::string& peer_id) {
  BinaryDigest digest;
  digest.sender_id = options_.id;
  if (!peer_id.empty()) digest.ack = rx_ack_locked(peer_id);
  SenderCursor* cursor = peer_id.empty() ? nullptr : &touch_cursor(peer_id);
  const bool incremental = cursor != nullptr && cursor->established;
  const std::uint64_t floor = incremental ? cursor->acked_seq : 0;

  if (incremental) {
    digest.kind = DigestKind::delta;
    digest.epoch = cursor->epoch;
  } else {
    // Full resync: a fresh dictionary generation.  The epoch fences stale
    // acks from the previous generation, and reassigning ids densely keeps
    // the receiver's dictionary hole-free.
    digest.kind = DigestKind::full;
    digest.epoch = rng_.next_u64() | 1;
    if (cursor != nullptr) {
      cursor->epoch = digest.epoch;
      cursor->ids.clear();
      cursor->acked_seq = 0;
      cursor->acked_names = 0;
    }
  }
  digest.from_seq = floor;
  digest.to_seq = table_.seq();

  std::map<std::string, std::uint32_t> one_shot_ids;
  std::map<std::string, std::uint32_t>& ids =
      cursor != nullptr ? cursor->ids : one_shot_ids;
  const std::vector<const MemberEntry*> changed = table_.gossipable_since(floor);
  const ReceiverSession* peer_rx = nullptr;
  if (!peer_id.empty()) {
    const auto rx_it = rx_.find(peer_id);
    if (rx_it != rx_.end()) peer_rx = &rx_it->second;
  }

  // Encode rows against the byte cap (96 bytes of header slack).
  const std::size_t budget =
      options_.max_digest_bytes > 96 ? options_.max_digest_bytes - 96 : 0;
  std::string scratch;
  std::uint64_t covered = floor;
  bool truncated = false;
  for (const MemberEntry* entry : changed) {
    if (digest.rows.size() >= kMaxDigestEntries) {
      truncated = true;
      break;
    }
    if (peer_rx != nullptr && peer_holds(*peer_rx, *entry)) {
      // Echo suppression: the peer told us this row (or fresher) itself —
      // their merge() would reject it.  The cursor still advances past it;
      // any later change re-versions the row back into the next delta.
      covered = entry->version;
      ++stats_.digest_rows_suppressed;
      continue;
    }
    DigestRow row;
    const auto [it, inserted] =
        ids.try_emplace(entry->id, static_cast<std::uint32_t>(ids.size()));
    row.name_id = it->second;
    const bool define =
        !incremental || inserted || row.name_id >= cursor->acked_names;
    if (define) {
      row.flags |= kRowDefine;
      row.id = entry->id;
    }
    // A defining row carries its fields unless the peer sent us this
    // member itself since it last resynced us: after a cut full the rest
    // of the table arrives as defining rows, and the peer may hold none
    // of those members yet.
    const bool peer_sent =
        peer_rx != nullptr && peer_rx->heard.count(entry->id) != 0;
    if (!incremental || entry->fields_version > floor ||
        (define && !peer_sent)) {
      row.flags |= kRowFields;
      row.address = entry->address;
      if (!entry->meta.empty()) {
        row.flags |= kRowMeta;
        row.meta = entry->meta;
      }
    }
    if (entry->state == MemberState::left) row.flags |= kRowLeft;
    row.incarnation = entry->incarnation;
    row.heartbeat = entry->heartbeat;
    encode_digest_row(scratch, row);
    if (scratch.size() > budget) {
      // The cut row leaves no dictionary id behind: the next digest must
      // not define a later id past one the peer never received.
      if (inserted) ids.erase(it);
      truncated = true;
      break;
    }
    covered = entry->version;
    digest.rows.push_back(std::move(row));
  }

  if (truncated) {
    // A cut digest, full or delta, stays correct by claiming only the
    // covered prefix: the peer's ack floor advances to `covered` and the
    // rest ships as deltas in the following exchanges.
    ++stats_.digest_truncations;
    digest.to_seq = covered;
  }

  if (incremental) {
    ++stats_.digests_delta_sent;
  } else {
    ++stats_.digests_full_sent;
  }
  stats_.digest_rows_sent += digest.rows.size();
  if (cursor != nullptr) cursor->rows_sent += digest.rows.size();
  return digest;
}

void Agent::apply_ack_locked(const std::string& peer_id,
                             const DigestAck& ack) {
  const auto it = cursors_.find(peer_id);
  if (it == cursors_.end()) return;
  SenderCursor& cursor = it->second;
  if (ack.kind == AckKind::cursor) {
    if (cursor.epoch == 0 || ack.epoch != cursor.epoch) return;  // stale
    cursor.established = true;
    cursor.acked_seq =
        std::max(cursor.acked_seq, std::min(ack.seq, table_.seq()));
    cursor.acked_names = std::max(
        cursor.acked_names,
        std::min<std::uint64_t>(ack.names, cursor.ids.size()));
  } else if (cursor.established) {
    // The peer lost our session (restart, eviction, reject): next digest
    // is a self-contained full.  Nor can we trust what the peer once sent
    // us — it may have dropped those members since — so until it sends
    // them again, the rows past a cut full carry their fields.
    cursor.established = false;
    ++cursor.resyncs;
    ++stats_.full_resyncs;
    if (const auto rx = rx_.find(peer_id); rx != rx_.end()) {
      rx->second.heard.clear();
    }
  }
}

bool Agent::apply_body_locked(const BinaryDigest& digest,
                              std::vector<MemberEvent>& events) {
  ReceiverSession& session = touch_rx(digest.sender_id);
  const bool full = digest.kind == DigestKind::full;
  if (!full) {
    // `from_seq <= applied_seq` rather than `==`: merges are idempotent,
    // so replaying rows we already applied (a lost ack left the sender's
    // floor behind) is harmless; only a gap *beyond* what we applied — or
    // a different dictionary generation — forces a resync.
    if (!session.valid || session.epoch != digest.epoch ||
        digest.from_seq > session.applied_seq) {
      session.valid = false;
      ++stats_.digest_rejects;
      return false;
    }
  }

  // Phase 1: resolve every row, staging dictionary changes.  Any failure
  // rejects the whole digest before a single row is merged — the strict
  // applier rule that makes corruption cost a resync, never divergence.
  const std::size_t base = full ? 0 : session.names.size();
  std::map<std::uint32_t, std::string> staged;
  std::size_t appended = 0;
  std::vector<MemberEntry> entries;
  entries.reserve(digest.rows.size());
  std::vector<const std::string*> fresh_fields;
  for (const DigestRow& row : digest.rows) {
    std::string id;
    if ((row.flags & kRowDefine) != 0) {
      if (row.name_id > base + appended) {
        session.valid = false;
        ++stats_.digest_rejects;
        return false;  // dictionary gap
      }
      if (row.name_id == base + appended) ++appended;
      staged[row.name_id] = row.id;
      id = row.id;
    } else {
      const auto it = staged.find(row.name_id);
      if (it != staged.end()) {
        id = it->second;
      } else if (!full && row.name_id < base &&
                 !session.names[row.name_id].empty()) {
        id = session.names[row.name_id];
      } else {
        session.valid = false;
        ++stats_.digest_rejects;
        return false;  // unknown dictionary id
      }
    }
    MemberEntry entry;
    entry.id = id;
    if ((row.flags & kRowFields) != 0) {
      entry.address = row.address;
      if ((row.flags & kRowMeta) != 0) entry.meta = row.meta;
    } else {
      // Context-stateful row: fill address/meta from our own table, which
      // the session contract guarantees is current — unless we dropped and
      // re-learned the member since (tainted), where the local copy may be
      // from an older life.  Either miss is a hard reject.
      if (full) {
        session.valid = false;
        ++stats_.digest_rejects;
        return false;  // fulls must be self-contained
      }
      const MemberEntry* own = table_.find(id);
      if (own == nullptr || session.tainted.count(id) != 0) {
        session.valid = false;
        ++stats_.digest_rejects;
        return false;
      }
      entry.address = own->address;
      entry.meta = own->meta;
    }
    entry.state =
        (row.flags & kRowLeft) != 0 ? MemberState::left : MemberState::alive;
    entry.incarnation = row.incarnation;
    entry.heartbeat = row.heartbeat;
    entries.push_back(std::move(entry));
    if ((row.flags & kRowFields) != 0) {
      fresh_fields.push_back(&entries.back().id);
    }
  }

  // Phase 2: commit.
  if (full) {
    session.epoch = digest.epoch;
    session.names.assign(appended, std::string());
    session.applied_seq = digest.to_seq;
    session.valid = true;
    session.tainted.clear();
    session.heard.clear();  // the full IS the peer's table; start over
  } else {
    session.names.resize(base + appended);
    session.applied_seq = std::max(session.applied_seq, digest.to_seq);
  }
  for (auto& [name_id, name] : staged) {
    session.names[name_id] = std::move(name);
  }
  for (const std::string* id : fresh_fields) {
    session.tainted.erase(*id);
  }
  for (const MemberEntry& entry : entries) {
    // Record what the peer demonstrably holds (echo suppression's floor).
    ReceiverSession::Heard& heard = session.heard[entry.id];
    const bool newer_life = entry.incarnation > heard.incarnation;
    if (!newer_life && (entry.incarnation < heard.incarnation ||
                        entry.heartbeat < heard.heartbeat)) {
      continue;
    }
    if (entry.state == MemberState::left) {
      heard.left = true;
    } else if (newer_life) {
      heard.left = false;  // a fresher incarnation supersedes a tombstone
    }
    heard.incarnation = entry.incarnation;
    heard.heartbeat = entry.heartbeat;
  }
  table_.merge(entries, clock_.now_us(), events);
  return true;
}

Agent::Outbound Agent::plan_exchange_locked(PeerRef target) {
  BinaryDigest digest = build_digest_locked(target.id);
  Outbound out;
  out.payload = encode_binary_digest(digest);
  if (digest.kind == DigestKind::full && !target.id.empty()) {
    cursors_.at(target.id).full_in_flight = std::move(digest);
  }
  out.target = std::move(target);
  return out;
}

void Agent::tick() {
  std::vector<MemberEvent> events;
  std::vector<Outbound> outs;
  {
    std::lock_guard lock(mutex_);
    const TimeUs now = clock_.now_us();
    table_.tick_self(now);
    table_.advance(now, options_.t_fail_us, options_.t_cleanup_us, events);
    ++stats_.rounds;
    // A removed row taints every receiver session holding it: a later
    // context-stateful row for that member can no longer trust the local
    // copy (it may be a re-learned older life) and must carry its fields.
    for (const MemberEvent& event : events) {
      if (event.kind == MemberEvent::Kind::removed) {
        for (auto& [sender, session] : rx_) {
          (void)sender;
          session.tainted.insert(event.entry.id);
          // Drop the echo-suppression floor too: if the member rejoins in
          // a same-incarnation life, stale "peer holds fresher" evidence
          // must not stop us forwarding the rejoin.
          session.heard.erase(event.entry.id);
        }
      }
    }
    for (PeerRef& target : pick_targets()) {
      outs.push_back(plan_exchange_locked(std::move(target)));
    }
  }
  dispatch(events);
  for (const Outbound& out : outs) {
    exchange_with(out);
  }
}

void Agent::exchange_with(const Outbound& out) {
  {
    std::lock_guard lock(mutex_);
    ++stats_.sends;
    stats_.bytes_out += out.payload.size();
  }
  bool carried = false;
  const Result<std::string> reply = round_trip(out, carried);
  const Result<BinaryDigest> digest =
      reply.ok() ? decode_binary_digest(*reply) : reply.error();
  std::vector<MemberEvent> events;
  {
    std::lock_guard lock(mutex_);
    // Under the same lock as the reply's ack, so no crossing request can
    // slip in between and start a new epoch before this one is acked.
    if (const auto it = cursors_.find(out.target.id); it != cursors_.end()) {
      it->second.full_in_flight.reset();
    }
    if (!digest.ok()) {
      ++stats_.send_failures;
      return;
    }
    if (carried) ++stats_.piggyback_exchanges;
    stats_.bytes_in += reply->size();
    ++stats_.digests_received;
    apply_ack_locked(digest->sender_id, digest->ack);
    apply_body_locked(*digest, events);
  }
  dispatch(events);
}

Result<std::string> Agent::round_trip(const Outbound& out, bool& carried) {
  // Piggyback: offer the exchange to the carrier (an already-open
  // federation stream) first; dial a gossip connection only when no
  // carrier channel exists for this peer.
  Carrier carrier;
  {
    std::lock_guard lock(handler_mutex_);
    carrier = carrier_;
  }
  if (carrier) {
    auto via = carrier(out.target.address, out.payload);
    if (via.has_value() && via->ok()) {
      carried = true;
      return std::move(*via);
    }
    // No channel, or it broke mid-exchange: dial directly this round.
  }

  const TimeUs timeout =
      std::min(options_.connect_timeout_us, options_.interval_us);
  auto conn = transport_.connect(out.target.address, timeout);
  if (!conn.ok()) return conn.error();
  net::Stream& stream = **conn;
  std::string framed;
  put_digest_frames(framed, out.payload, options_.max_frame);
  if (Status written = stream.write_all(framed); !written.ok()) {
    return written.error();
  }
  net::FrameReader reader(stream, options_.max_frame + 64);
  auto begin = reader.next();
  if (!begin.ok()) return begin.error();
  auto payload = read_digest_frames(reader, *begin, options_.max_digest_bytes);
  stream.close();
  return payload;
}

Result<std::string> Agent::handle_digest_payload(std::string_view payload) {
  auto digest = decode_binary_digest(payload);
  if (!digest.ok()) return digest.error();
  if (digest->sender_id == options_.id) {
    return Error{Errc::invalid_argument, "gossip: digest from own id"};
  }
  std::vector<MemberEvent> events;
  std::string reply;
  {
    std::lock_guard lock(mutex_);
    stats_.bytes_in += payload.size();
    ++stats_.digests_received;
    apply_ack_locked(digest->sender_id, digest->ack);
    apply_body_locked(*digest, events);
    // Reply after applying, so our ack covers the digest we just took and
    // the initiator's floor advances one round sooner.  A rejected body
    // still gets a reply — carrying the resync ack that heals the session.
    SenderCursor& cursor = touch_cursor(digest->sender_id);
    if (!cursor.established && cursor.full_in_flight) {
      // Crossing fulls: send the in-flight full again, same epoch and
      // ids, with a fresh ack.  Whichever copy the peer acks establishes
      // the cursor, where a fresh epoch would turn that ack stale.
      BinaryDigest& full = *cursor.full_in_flight;
      full.ack = rx_ack_locked(digest->sender_id);
      reply = encode_binary_digest(full);
      ++stats_.digests_full_sent;
      stats_.digest_rows_sent += full.rows.size();
      cursor.rows_sent += full.rows.size();
    } else {
      reply = encode_binary_digest(build_digest_locked(digest->sender_id));
    }
    stats_.bytes_out += reply.size();
  }
  dispatch(events);
  return reply;
}

Result<std::string> Agent::handle_request(std::string_view request) {
  auto payload = collect_digest_frames(request, options_.max_digest_bytes);
  if (!payload.ok()) return payload.error();
  auto reply = handle_digest_payload(*payload);
  if (!reply.ok()) return reply.error();
  std::string framed;
  put_digest_frames(framed, *reply, options_.max_frame);
  return framed;
}

net::ServiceFn Agent::service() {
  return [this](std::string_view request) { return handle_request(request); };
}

net::RequestEnd Agent::request_end(std::string_view unread,
                                   net::ScanState& scan) const {
  return framed_request_end(unread, scan, options_.max_frame + 64,
                            options_.max_digest_bytes);
}

void Agent::leave() {
  std::vector<Outbound> outs;
  {
    std::lock_guard lock(mutex_);
    table_.leave_self(clock_.now_us());
    std::vector<PeerRef> targets = table_.alive_peers();
    // Best effort: tell `fanout` live peers; gossip spreads the tombstone.
    if (targets.size() > options_.fanout) {
      for (std::size_t i = 0; i < options_.fanout; ++i) {
        const std::size_t j =
            i + rng_.next_below(static_cast<std::uint32_t>(targets.size() - i));
        std::swap(targets[i], targets[j]);
      }
      targets.resize(options_.fanout);
    }
    for (PeerRef& target : targets) {
      outs.push_back(plan_exchange_locked(std::move(target)));
    }
  }
  for (const Outbound& out : outs) {
    exchange_with(out);
  }
}

void Agent::dispatch(std::vector<MemberEvent>& events) {
  if (events.empty()) return;
  EventHandler handler;
  {
    std::lock_guard lock(handler_mutex_);
    handler = handler_;
  }
  if (!handler) return;
  for (const MemberEvent& event : events) {
    handler(event);
  }
}

std::vector<MemberEntry> Agent::members() const {
  std::lock_guard lock(mutex_);
  return table_.snapshot();
}

std::optional<MemberEntry> Agent::member(const std::string& id) const {
  std::lock_guard lock(mutex_);
  const MemberEntry* entry = table_.find(id);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

std::size_t Agent::alive_count() const {
  std::lock_guard lock(mutex_);
  return table_.alive_count();
}

AgentStats Agent::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<PeerSessionView> Agent::peer_sessions() const {
  std::lock_guard lock(mutex_);
  std::vector<PeerSessionView> out;
  out.reserve(cursors_.size());
  for (const auto& [peer, cursor] : cursors_) {
    PeerSessionView view;
    view.peer = peer;
    view.mode = cursor.established ? "delta" : "full";
    view.acked_seq = cursor.acked_seq;
    view.rows_sent = cursor.rows_sent;
    view.resyncs = cursor.resyncs;
    out.push_back(std::move(view));
  }
  return out;
}

void Agent::set_self_meta(const std::string& key, std::string value) {
  std::lock_guard lock(mutex_);
  table_.set_self_meta(key, std::move(value));
}

void Agent::set_self_address(std::string address) {
  std::lock_guard lock(mutex_);
  table_.set_self_address(std::move(address));
}

void Agent::set_event_handler(EventHandler handler) {
  std::lock_guard lock(handler_mutex_);
  handler_ = std::move(handler);
}

void Agent::set_carrier(Carrier carrier) {
  std::lock_guard lock(handler_mutex_);
  carrier_ = std::move(carrier);
}

}  // namespace ganglia::gossip
