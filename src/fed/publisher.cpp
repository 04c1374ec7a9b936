#include "fed/publisher.hpp"

#include <algorithm>
#include <utility>

#include "gossip/delta.hpp"

namespace ganglia::fed {

namespace {

// Generous allowance for the frame length prefix + type byte.
constexpr std::size_t kFrameOverhead = 16;

void append_chunked(std::string& out, std::uint8_t type, std::string_view data,
                    std::size_t max_payload) {
  std::size_t pos = 0;
  do {
    const std::size_t n = std::min(max_payload, data.size() - pos);
    net::put_frame(out, type, data.substr(pos, n));
    pos += n;
  } while (pos < data.size());
}

}  // namespace

Publisher::Publisher(DocProvider provider, PublisherOptions opts)
    : provider_(std::move(provider)), opts_(opts) {}

void Publisher::respond_error(std::string& out, std::string_view message) {
  out.clear();
  net::put_frame(out, kFrameError, message);
}

std::shared_ptr<Publisher::Session> Publisher::session_for(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (sessions_.size() >= opts_.max_sessions) {
      auto victim = sessions_.begin();
      for (auto cand = sessions_.begin(); cand != sessions_.end(); ++cand) {
        if (cand->second->last_used < victim->second->last_used) victim = cand;
      }
      sessions_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    it = sessions_.emplace(id, std::make_shared<Session>()).first;
  }
  it->second->last_used = ++use_tick_;
  return it->second;
}

std::shared_ptr<const std::string> Publisher::xml_for(View view,
                                                     const Doc& doc) {
  std::lock_guard<std::mutex> lock(xml_mutex_);
  Full& full = fulls_by_view_[static_cast<std::size_t>(view)];
  if (full.xml == nullptr || full.version != doc.version) {
    full.xml = std::make_shared<const std::string>(
        doc.report != nullptr ? write_report(*doc.report) : std::string());
    full.version = doc.version;
    full.size = full.xml->size();
  }
  return full.xml;
}

std::uint64_t Publisher::last_full_size(View view) {
  std::lock_guard<std::mutex> lock(xml_mutex_);
  return fulls_by_view_[static_cast<std::size_t>(view)].size;
}

void Publisher::respond_full(std::string& out, View view, const Doc& doc,
                             std::size_t max_payload, Session* sess) {
  auto xml = xml_for(view, doc);
  if (xml->size() > kMaxResponseBytes) {
    respond_error(out, "report too large");
    errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  out.clear();
  std::string begin;
  net::put_varint(begin, doc.version);
  net::put_varint(begin, xml->size());
  net::put_frame(out, kFrameFullBegin, begin);
  if (!xml->empty()) append_chunked(out, kFrameFullChunk, *xml, max_payload);
  fulls_.fetch_add(1, std::memory_order_relaxed);
  if (sess != nullptr) {
    sess->version = doc.version;
    sess->view = view;
    sess->base = doc.report;
    sess->dict.clear();
  }
}

void Publisher::drop_stale_xml(View view, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(xml_mutex_);
  Full& full = fulls_by_view_[static_cast<std::size_t>(view)];
  if (full.version != version) full.xml.reset();
}

std::string Publisher::serve_digest(std::string_view request) {
  std::string out;
  DigestHandler handler;
  {
    std::lock_guard<std::mutex> lock(digest_mutex_);
    handler = digest_handler_;
  }
  if (!handler) {
    respond_error(out, "membership digests unsupported");
    errors_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }
  auto payload = gossip::collect_digest_frames(request, opts_.max_digest_bytes);
  if (payload.ok()) {
    auto reply = handler(*payload);
    if (reply.ok()) {
      gossip::put_digest_frames(out, *reply, opts_.max_frame);
      digests_.fetch_add(1, std::memory_order_relaxed);
      bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
      return out;
    }
    respond_error(out, reply.error().message);
  } else {
    respond_error(out, payload.error().message);
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::string Publisher::serve(std::string_view request) {
  std::string out;
  net::Frame frame;
  std::size_t consumed = 0;
  if (net::parse_frame(request, opts_.max_frame, frame, consumed) !=
      net::FrameParse::ok) {
    respond_error(out, "bad request frame");
    errors_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }
  if (frame.type == gossip::kFrameDigestBegin) return serve_digest(request);
  auto req = decode_request(frame.type, frame.payload);
  if (!req.ok()) {
    respond_error(out, req.error().message);
    errors_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }
  if (req->op == kOpPing) {
    pings_.fetch_add(1, std::memory_order_relaxed);
    net::put_frame(out, kFramePong, {});
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  polls_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t effective_frame =
      std::min(opts_.max_frame,
               std::max<std::size_t>(static_cast<std::size_t>(std::min<std::uint64_t>(
                                         req->max_frame, kMaxFrameBytes)),
                                     kMinFrameBytes));
  const std::size_t max_payload =
      effective_frame > kFrameOverhead ? effective_frame - kFrameOverhead : 1;

  const View view = req->view;
  const Doc doc = provider_(view);
  if (doc.report == nullptr) {
    respond_error(out, "no document");
    errors_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  if (req->session_id.empty()) {
    respond_full(out, view, doc, max_payload, nullptr);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  auto sess = session_for(req->session_id);
  std::lock_guard<std::mutex> lock(sess->mutex);

  const bool base_ok = req->last_version != 0 &&
                       req->last_version == sess->version &&
                       sess->view == view && sess->base != nullptr;
  if (!base_ok) {
    respond_full(out, view, doc, max_payload, sess.get());
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  if (doc.version == sess->version) {
    // Nothing changed: an empty delta keeps the session warm for free.
    std::string begin;
    net::put_varint(begin, sess->version);
    net::put_varint(begin, sess->version);
    net::put_frame(out, kFrameDeltaBegin, begin);
    std::string end;
    net::put_varint(end, 0);
    net::put_frame(out, kFrameEnd, end);
    deltas_.fetch_add(1, std::memory_order_relaxed);
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  const std::size_t dict_size = sess->dict.size();
  RowBuffer rows;
  bool usable = diff_report(*sess->base, *doc.report, sess->dict, rows);
  if (usable) {
    // A delta bigger than the report itself (the last full of this view)
    // is a loss; so is a single row that cannot fit the negotiated frame
    // size.
    const std::uint64_t full_size = last_full_size(view);
    if (full_size != 0 && rows.bytes.size() >= full_size) usable = false;
    std::uint32_t prev = 0;
    for (std::uint32_t end : rows.ends) {
      if (end - prev > max_payload) {
        usable = false;
        break;
      }
      prev = end;
    }
  }
  if (!usable) {
    sess->dict.truncate(dict_size);
    respond_full(out, view, doc, max_payload, sess.get());
    bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
    return out;
  }

  std::string begin;
  net::put_varint(begin, sess->version);
  net::put_varint(begin, doc.version);
  net::put_frame(out, kFrameDeltaBegin, begin);
  // Chunk at row boundaries so no frame ever splits a row.
  std::size_t chunk_start = 0;
  std::size_t prev_end = 0;
  for (std::uint32_t end : rows.ends) {
    if (end - chunk_start > max_payload) {
      net::put_frame(out, kFrameRows,
                     std::string_view(rows.bytes)
                         .substr(chunk_start, prev_end - chunk_start));
      chunk_start = prev_end;
    }
    prev_end = end;
  }
  if (prev_end > chunk_start) {
    net::put_frame(out, kFrameRows,
                   std::string_view(rows.bytes)
                       .substr(chunk_start, prev_end - chunk_start));
  }
  std::string end_payload;
  net::put_varint(end_payload, rows.row_count());
  net::put_frame(out, kFrameEnd, end_payload);

  sess->version = doc.version;
  sess->base = doc.report;
  deltas_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(out.size(), std::memory_order_relaxed);
  drop_stale_xml(view, doc.version);
  return out;
}

void Publisher::set_digest_handler(DigestHandler handler) {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  digest_handler_ = std::move(handler);
}

net::ServiceFn Publisher::service() {
  return [this](std::string_view request) -> Result<std::string> {
    return serve(request);
  };
}

PublisherStats Publisher::stats() const {
  PublisherStats s;
  s.polls = polls_.load(std::memory_order_relaxed);
  s.deltas = deltas_.load(std::memory_order_relaxed);
  s.fulls = fulls_.load(std::memory_order_relaxed);
  s.pings = pings_.load(std::memory_order_relaxed);
  s.digests = digests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    s.sessions = sessions_.size();
  }
  return s;
}

}  // namespace ganglia::fed
