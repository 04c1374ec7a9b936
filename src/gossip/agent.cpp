#include "gossip/agent.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace ganglia::gossip {

namespace {

MemberEntry self_row(const AgentOptions& options, TimeUs now) {
  MemberEntry self;
  self.id = options.id;
  self.address = options.address;
  // The start time: a restarted process outranks its previous life.
  self.incarnation = static_cast<std::uint64_t>(now);
  self.local_time_us = now;
  self.meta = options.meta;
  return self;
}

/// A row as it travels.  DEAD is our own verdict; what goes out is the
/// doubt behind it.
MemberEntry wire_form(const MemberEntry& row) {
  MemberEntry out = row;
  if (out.state == MemberState::dead) out.state = MemberState::suspect;
  return out;
}

/// How often one piece of news is piggybacked: 3·⌈log10(n+1)⌉ sends, and
/// ⌈log10(n+1)⌉ is the number of decimal digits of n.
unsigned retransmit_limit(std::size_t members) {
  unsigned digits = 1;
  for (std::size_t n = members; n >= 10; n /= 10) ++digits;
  return 3 * digits;
}

}  // namespace

Agent::Agent(AgentOptions options, net::Transport& transport, Clock& clock)
    : options_(std::move(options)),
      transport_(transport),
      clock_(clock),
      table_(self_row(options_, clock_.now_us())),
      rng_(options_.rng_seed) {}

Agent::~Agent() = default;

// -------------------------------------------------------------- planning

const MemberEntry* Agent::next_probe_locked() {
  // The ring: ourselves and every ALIVE or SUSPECT peer, in id order.
  // Period p probes the member 1 + p mod (m - 1) places on from us, so each
  // member visits every peer once per m - 1 periods, and members that hold
  // the same ring probe every member exactly once per period.
  std::vector<const MemberEntry*> ring;
  std::size_t self_at = 0;
  for (const auto& [id, entry] : table_.rows()) {
    if (id == options_.id) {
      self_at = ring.size();
      ring.push_back(&entry);
    } else if (entry.state == MemberState::alive ||
               entry.state == MemberState::suspect) {
      ring.push_back(&entry);
    }
  }
  if (ring.size() < 2) return nullptr;
  const auto period = static_cast<std::uint64_t>(
      clock_.now_us() / std::max<TimeUs>(options_.interval_us, 1));
  const std::size_t offset = 1 + period % (ring.size() - 1);
  return ring[(self_at + offset) % ring.size()];
}

std::optional<PeerRef> Agent::pick_seed_locked() {
  std::vector<const std::string*> seeds;
  for (const std::string& seed : options_.seeds) {
    if (seed != table_.self().address) seeds.push_back(&seed);
  }
  if (seeds.empty()) return std::nullopt;
  PeerRef seed{"", *seeds[rng_.next_below(
                       static_cast<std::uint32_t>(seeds.size()))]};
  for (const auto& [id, entry] : table_.rows()) {
    if (id != options_.id && entry.address == seed.address) {
      seed.id = id;
      break;
    }
  }
  return seed;
}

std::vector<PeerRef> Agent::sample_locked(std::vector<PeerRef> peers,
                                          std::size_t count) {
  count = std::min(count, peers.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + rng_.next_below(static_cast<std::uint32_t>(peers.size() - i));
    std::swap(peers[i], peers[j]);
  }
  peers.resize(count);
  return peers;
}

void Agent::tick() {
  std::optional<PeerRef> target;
  std::uint64_t incarnation = 0;
  std::optional<PeerRef> extra;
  std::optional<Sync> sync;
  {
    std::lock_guard lock(mutex_);
    table_.advance(clock_.now_us(), options_.t_fail_us, options_.t_cleanup_us,
                   pending_);
    ++stats_.rounds;
    if (const MemberEntry* next = next_probe_locked()) {
      target = PeerRef{next->id, next->address};
      incarnation = next->incarnation;
    } else if (!sync_) {
      // Nobody to probe: pull the group from a seed.
      if (auto seed = pick_seed_locked()) schedule_sync_locked(seed->address);
    }
    const std::vector<PeerRef> dead = table_.peers({MemberState::dead});
    if (!dead.empty()) {
      extra = dead[rng_.next_below(static_cast<std::uint32_t>(dead.size()))];
    } else if (target && stats_.rounds % kSeedProbePeriod == 0) {
      extra = pick_seed_locked();
      if (extra && extra->address == target->address) extra.reset();
    }
    sync = sync_;
  }
  dispatch();
  if (target) probe(*target, incarnation);
  if (extra) (void)ping(*extra);
  if (sync) sync_page(*sync);
}

// -------------------------------------------------------------- messages

Message Agent::stamp_locked(MessageKind kind) {
  const MemberEntry& self = table_.self();
  Message message;
  message.kind = kind;
  message.digest = table_.digest();
  message.sender = self.id;
  // Every change to our row changes its version; the row then leads our
  // next retransmit_limit messages, and after that only our id goes out.
  const std::uint64_t version = row_hash(self);
  if (version != self_version_) {
    self_version_ = version;
    self_sent_ = 0;
  }
  if (self_sent_ < retransmit_limit(table_.size())) {
    ++self_sent_;
    message.rows.push_back(self);
  }
  return message;
}

Message Agent::message_locked(MessageKind kind, const std::string& receiver_id,
                              const std::string& target_id) {
  Message message = stamp_locked(kind);
  message.target_id = target_id;

  // Piggyback rows within the cap (3 bytes of slack for the row count).
  std::size_t size = encode_message(message).size() + 3;
  std::string scratch;
  const auto add = [&](const MemberEntry& row) {
    scratch.clear();
    encode_row(scratch, row);
    if (message.rows.size() >= kMaxDigestEntries ||
        size + scratch.size() > options_.max_digest_bytes) {
      return false;
    }
    size += scratch.size();
    message.rows.push_back(wire_form(row));
    return true;
  };
  // Lead with the receiver's own row when we doubt it, so it can refute.
  const MemberEntry* receiver = table_.find(receiver_id);
  if (receiver != nullptr && receiver_id != options_.id &&
      (receiver->state == MemberState::suspect ||
       receiver->state == MemberState::dead)) {
    (void)add(*receiver);
  }
  std::vector<std::pair<unsigned, std::string>> queued;
  queued.reserve(news_.size());
  for (const auto& [id, sent] : news_) queued.emplace_back(sent, id);
  std::stable_sort(
      queued.begin(), queued.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  const unsigned limit = retransmit_limit(table_.size());
  for (const auto& [sent, id] : queued) {
    if (id == receiver_id) continue;
    const MemberEntry* row = table_.find(id);
    if (row == nullptr) {
      news_.erase(id);
      continue;
    }
    if (!add(*row)) break;
    if (sent + 1 >= limit) {
      news_.erase(id);
    } else {
      news_[id] = sent + 1;
    }
  }
  stats_.digest_rows_sent += message.rows.size();
  return message;
}

Message Agent::sync_request_locked(const std::string& from) {
  Message request = stamp_locked(MessageKind::sync);
  // Our row rides every request, news or not: a responder that dropped us
  // learns our address from it, and can pull back what it lacks.
  if (request.rows.empty()) request.rows.push_back(table_.self());
  request.page_from = from;
  // Hash the rows after `from` while they fit; each may also end the page,
  // so reserve room to name it.
  std::size_t size = encode_message(request).size() + 3;
  const auto& rows = table_.rows();
  auto it = rows.upper_bound(from);
  for (; it != rows.end(); ++it) {
    if (request.have.size() >= kMaxDigestEntries ||
        size + 8 + it->first.size() + 2 > options_.max_digest_bytes) {
      break;
    }
    size += 8;
    request.have.push_back(row_hash(it->second));
  }
  // A page cut short ends at its last id; one that reached the end is open.
  if (it != rows.end() && !request.have.empty()) {
    request.page_to = std::prev(it)->first;
  }
  stats_.digest_rows_sent += request.rows.size();
  return request;
}

Message Agent::sync_reply_locked(const Message& request) {
  Message reply = stamp_locked(MessageKind::sync);
  const bool self_carried = !reply.rows.empty();  // our row, while news
  reply.page_from = request.page_from;
  std::size_t size = encode_message(reply).size() + 3 +
                     request.page_to.size() + 2;
  const std::unordered_set<std::uint64_t> have(request.have.begin(),
                                               request.have.end());
  std::unordered_set<std::uint64_t> mine;
  const auto& rows = table_.rows();
  const auto end = request.page_to.empty() ? rows.end()
                                           : rows.upper_bound(request.page_to);
  bool cut = false;
  std::string scratch;
  for (auto it = rows.upper_bound(request.page_from); it != end; ++it) {
    const std::uint64_t hash = row_hash(it->second);
    mine.insert(hash);
    if (cut) continue;
    const MemberEntry& row = it->second;
    if (have.count(hash) == 0 && row.id != request.sender &&
        (row.id != options_.id || !self_carried)) {
      scratch.clear();
      encode_row(scratch, row);
      if (reply.rows.size() >= kMaxDigestEntries ||
          size + scratch.size() > options_.max_digest_bytes) {
        cut = true;  // the requester resumes after the last id we covered
        continue;
      }
      size += scratch.size();
      reply.rows.push_back(wire_form(row));
    }
    reply.page_to = it->first;
  }
  if (!cut) reply.page_to = request.page_to;
  stats_.digest_rows_sent += reply.rows.size();
  // The request shows rows we do not hold: pull them back.
  for (const std::uint64_t hash : request.have) {
    if (mine.count(hash) == 0) {
      sync_with_member_locked(request.sender);
      break;
    }
  }
  return reply;
}

void Agent::merge_locked(const MemberEntry& row, TimeUs now) {
  if (table_.merge(row, now, pending_)) news_[row.id] = 0;
}

bool Agent::absorb_locked(const Message& message) {
  const TimeUs now = clock_.now_us();
  for (const MemberEntry& row : message.rows) merge_locked(row, now);
  return message.digest != table_.digest();
}

void Agent::sync_with_member_locked(const std::string& id) {
  const MemberEntry* peer = table_.find(id);
  if (peer != nullptr && (peer->state == MemberState::alive ||
                          peer->state == MemberState::suspect)) {
    schedule_sync_locked(peer->address);
  }
}

void Agent::schedule_sync_locked(const std::string& address) {
  if (!sync_) sync_ = Sync{address, ""};
}

// ------------------------------------------------------------- exchanges

void Agent::probe(const PeerRef& target, std::uint64_t incarnation) {
  if (ping(target)) return;
  std::vector<PeerRef> helpers;
  {
    std::lock_guard lock(mutex_);
    std::vector<PeerRef> alive = table_.peers({MemberState::alive});
    std::erase_if(alive, [&](const PeerRef& p) { return p.id == target.id; });
    helpers = sample_locked(std::move(alive), options_.fanout);
  }
  for (const PeerRef& helper : helpers) {
    Message request;
    {
      std::lock_guard lock(mutex_);
      request = message_locked(MessageKind::ping_req, helper.id, target.id);
    }
    const Result<Message> reply = round_trip(helper.address, request);
    if (!reply.ok()) continue;
    {
      std::lock_guard lock(mutex_);
      if (absorb_locked(*reply)) schedule_sync_locked(helper.address);
    }
    dispatch();
    if (reply->kind == MessageKind::ack) return;
  }
  {
    std::lock_guard lock(mutex_);
    // Our verdict merges like anyone's: a SUSPECT row at the incarnation we
    // probed, which a refutation that arrived meanwhile outranks.
    if (const MemberEntry* row = table_.find(target.id)) {
      MemberEntry doubt = *row;
      doubt.state = MemberState::suspect;
      doubt.incarnation = incarnation;
      merge_locked(doubt, clock_.now_us());
    }
  }
  dispatch();
}

bool Agent::ping(const PeerRef& target) {
  Message request;
  {
    std::lock_guard lock(mutex_);
    request = message_locked(MessageKind::ping, target.id);
  }
  const Result<Message> reply = round_trip(target.address, request);
  if (!reply.ok() || reply->kind != MessageKind::ack) return false;
  {
    std::lock_guard lock(mutex_);
    if (absorb_locked(*reply)) schedule_sync_locked(target.address);
  }
  dispatch();
  return target.id.empty() || reply->sender == target.id;
}

void Agent::sync_page(const Sync& sync) {
  Message request;
  {
    std::lock_guard lock(mutex_);
    if (sync.from.empty()) ++stats_.full_resyncs;
    request = sync_request_locked(sync.from);
  }
  const Result<Message> reply = round_trip(sync.address, request);
  {
    std::lock_guard lock(mutex_);
    sync_.reset();
    if (reply.ok() && reply->kind == MessageKind::sync) {
      (void)absorb_locked(*reply);
      // Keep paging until a reply covers the rest of our id order.
      if (!reply->page_to.empty() && reply->page_to > sync.from) {
        sync_ = Sync{sync.address, reply->page_to};
      }
    }
  }
  dispatch();
}

Result<Message> Agent::round_trip(const std::string& address,
                                  const Message& request) {
  const std::string payload = encode_message(request);
  {
    std::lock_guard lock(mutex_);
    ++stats_.sends;
    stats_.bytes_out += payload.size();
  }
  bool carried = false;
  const Result<std::string> reply = exchange(address, payload, carried);
  Result<Message> message =
      reply.ok() ? decode_message(*reply) : Result<Message>(reply.error());
  if (message.ok() && message->sender == options_.id) {
    message = Error{Errc::invalid_argument, "gossip: reply from own id"};
  }
  std::lock_guard lock(mutex_);
  if (!message.ok()) {
    ++stats_.send_failures;
    return message;
  }
  if (carried) ++stats_.piggyback_exchanges;
  stats_.bytes_in += reply->size();
  ++stats_.digests_received;
  return message;
}

Result<std::string> Agent::exchange(const std::string& address,
                                    const std::string& payload,
                                    bool& carried) {
  // Piggyback: offer the exchange to the carrier (an already-open
  // federation stream) first; dial a gossip connection only when no
  // carrier channel exists for this peer.
  Carrier carrier;
  {
    std::lock_guard lock(handler_mutex_);
    carrier = carrier_;
  }
  if (carrier) {
    auto via = carrier(address, payload);
    if (via.has_value() && via->ok()) {
      carried = true;
      return std::move(*via);
    }
    // No channel, or it broke mid-exchange: dial directly this time.
  }

  const TimeUs timeout =
      std::min(options_.connect_timeout_us, options_.interval_us);
  auto conn = transport_.connect(address, timeout);
  if (!conn.ok()) return conn.error();
  net::Stream& stream = **conn;
  std::string framed;
  put_digest_frames(framed, payload, options_.max_frame);
  if (Status written = stream.write_all(framed); !written.ok()) {
    return written.error();
  }
  net::FrameReader reader(stream, options_.max_frame + 64);
  auto begin = reader.next();
  if (!begin.ok()) return begin.error();
  auto reply = read_digest_frames(reader, *begin, options_.max_digest_bytes);
  stream.close();
  return reply;
}

// --------------------------------------------------------------- serving

Result<std::string> Agent::handle_digest_payload(std::string_view payload) {
  auto request = decode_message(payload);
  if (!request.ok()) return request.error();
  if (request->sender == options_.id) {
    return Error{Errc::invalid_argument, "gossip: message from own id"};
  }
  Message reply;
  std::optional<PeerRef> relay;
  {
    std::lock_guard lock(mutex_);
    stats_.bytes_in += payload.size();
    ++stats_.digests_received;
    switch (request->kind) {
      case MessageKind::ping:
        if (absorb_locked(*request)) sync_with_member_locked(request->sender);
        reply = message_locked(MessageKind::ack, request->sender);
        break;
      case MessageKind::ping_req: {
        if (absorb_locked(*request)) sync_with_member_locked(request->sender);
        // Dial only a member we hold, at the address we hold: the port is
        // open to untrusted peers, and a ping-req must not make us a relay
        // to arbitrary hosts.  A relay holds the serving thread for up to
        // one exchange bound, so relay one at a time and nack the rest.
        const MemberEntry* target = table_.find(request->target_id);
        const bool self = request->target_id == options_.id;
        if (target != nullptr && !self && !relaying_) {
          relaying_ = true;
          relay = PeerRef{target->id, target->address};
        } else {
          reply = message_locked(self ? MessageKind::ack : MessageKind::nack,
                                 request->sender);
        }
        break;
      }
      case MessageKind::sync:
        (void)absorb_locked(*request);
        reply = sync_reply_locked(*request);
        break;
      case MessageKind::ack:
      case MessageKind::nack:
        return Error{Errc::invalid_argument, "gossip: a reply is no request"};
    }
  }
  dispatch();
  if (relay) {
    const bool reached = ping(*relay);
    std::lock_guard lock(mutex_);
    relaying_ = false;
    reply = message_locked(reached ? MessageKind::ack : MessageKind::nack,
                           request->sender);
  }
  std::string out = encode_message(reply);
  std::lock_guard lock(mutex_);
  stats_.bytes_out += out.size();
  return out;
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
  std::vector<std::pair<std::string, Message>> pings;
  {
    std::lock_guard lock(mutex_);
    table_.leave_self(clock_.now_us());
    // Best effort: tell `fanout` live members; they spread the news.
    for (const PeerRef& peer : sample_locked(
             table_.peers({MemberState::alive}), options_.fanout)) {
      pings.emplace_back(peer.address,
                         message_locked(MessageKind::ping, peer.id));
    }
  }
  for (const auto& [address, message] : pings) {
    (void)round_trip(address, message);
  }
}

void Agent::dispatch() {
  // One thread hands events out at a time and drains everything queued so
  // far, so the handler sees them in the order the table made them even
  // when a tick and a peer's message race (a `died` cannot arrive after
  // the refutation that followed it).
  std::lock_guard order(dispatch_mutex_);
  for (;;) {
    std::vector<MemberEvent> events;
    {
      std::lock_guard lock(mutex_);
      events.swap(pending_);
    }
    if (events.empty()) return;
    EventHandler handler;
    {
      std::lock_guard lock(handler_mutex_);
      handler = handler_;
    }
    if (!handler) continue;
    for (const MemberEvent& event : events) handler(event);
  }
}

// ----------------------------------------------------------------- views

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
