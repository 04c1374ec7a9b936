#include "fed/session.hpp"

#include <atomic>
#include <functional>
#include <utility>

#include "common/rng.hpp"
#include "fed/apply.hpp"
#include "gossip/delta.hpp"
#include "gossip/message.hpp"
#include "net/framing.hpp"

namespace ganglia::fed {

namespace {

std::atomic<std::uint64_t> g_session_counter{1};

/// Opaque, process-unique session id (hex).  Uniqueness is what matters:
/// two pollers of the same publisher must never share server-side state.
std::string make_session_id(const std::string& address, const void* self) {
  const std::uint64_t seed =
      std::hash<std::string>{}(address) ^
      (g_session_counter.fetch_add(1, std::memory_order_relaxed) << 32) ^
      std::hash<const void*>{}(self);
  SplitMix64 sm(seed);
  std::string id;
  for (int word = 0; word < 2; ++word) {
    std::uint64_t v = sm.next();
    for (int i = 0; i < 16; ++i) {
      id.push_back("0123456789abcdef"[v & 0xf]);
      v >>= 4;
    }
  }
  return id;
}

}  // namespace

Session::Session(SessionOptions opts) : opts_(std::move(opts)) {
  session_id_ = make_session_id(opts_.address, this);
}

void Session::invalidate() {
  base_.reset();
  names_.clear();
  last_version_ = 0;
  stream_.reset();
}

Result<net::Stream*> Session::exchange(net::Transport& transport,
                                       TimeUs timeout,
                                       const std::string& request) {
  if (stream_ != nullptr && reuse_ok_) {
    auto st = stream_->write_all(request);
    if (st.ok()) return stream_.get();
    // One-exchange transports (the in-memory service fabric) reject a
    // second request on the same stream; stop trying to reuse.
    if (st.code() == Errc::unsupported) reuse_ok_ = false;
    stream_.reset();
  }
  auto fresh = transport.connect(opts_.address, timeout);
  if (!fresh.ok()) return fresh.error();
  stream_ = std::move(*fresh);
  auto st = stream_->write_all(request);
  if (!st.ok()) {
    stream_.reset();
    return st.error();
  }
  return stream_.get();
}

Result<Outcome> Session::poll(net::Transport& transport, TimeUs timeout,
                              CpuMeter* meter, View view) {
  PollRequest req;
  req.op = kOpPoll;
  req.session_id = session_id_;
  req.last_version = base_.has_value() ? last_version_ : 0;
  req.max_frame = opts_.max_frame;
  req.view = view;
  const std::string request = encode_poll(req);

  auto stream = exchange(transport, timeout, request);
  if (!stream.ok()) {
    stream_.reset();
    return stream.error();
  }
  auto outcome = read_response(**stream, request.size(), meter);
  if (!outcome.ok()) invalidate();
  return outcome;
}

Result<Outcome> Session::read_response(net::Stream& stream,
                                       std::size_t request_bytes,
                                       CpuMeter* meter) {
  net::FrameReader reader(stream, opts_.max_frame);
  auto first = reader.next();
  if (!first.ok()) return first.error();

  Outcome out;
  if (first->type == kFrameError) {
    return Err(Errc::io_error,
               "publisher error: " + std::string(first->payload));
  }

  if (first->type == kFrameFullBegin) {
    net::WireReader r(first->payload);
    std::uint64_t version = 0;
    std::uint64_t total = 0;
    if (!r.get_varint(version) || !r.get_varint(total) || !r.done() ||
        total > kMaxResponseBytes) {
      return Err(Errc::parse_error, "malformed full-begin frame");
    }
    std::string xml;
    xml.reserve(static_cast<std::size_t>(total));
    while (xml.size() < total) {
      auto chunk = reader.next();
      if (!chunk.ok()) return chunk.error();
      if (chunk->type != kFrameFullChunk ||
          chunk->payload.size() > total - xml.size()) {
        return Err(Errc::parse_error, "malformed full-chunk frame");
      }
      xml.append(chunk->payload);
    }
    const bool had_base = base_.has_value();
    CpuMeter unmetered;
    Result<Report> parsed = [&] {
      ScopedCpuMeter scope(meter != nullptr ? *meter : unmetered);
      return parse_report(xml);
    }();
    if (!parsed.ok()) return parsed.error();
    base_ = std::move(*parsed);
    names_.clear();
    last_version_ = version;
    out.report = *base_;
    out.delta = false;
    out.resync = had_base;
    out.bytes = request_bytes + reader.bytes_read();
    return out;
  }

  if (first->type != kFrameDeltaBegin) {
    return Err(Errc::parse_error, "unexpected response frame");
  }
  net::WireReader r(first->payload);
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  if (!r.get_varint(from) || !r.get_varint(to) || !r.done()) {
    return Err(Errc::parse_error, "malformed delta-begin frame");
  }
  if (!base_.has_value() || from != last_version_) {
    return Err(Errc::parse_error, "delta against a base we do not hold");
  }

  std::string rows;
  std::uint64_t declared_rows = 0;
  for (;;) {
    auto frame = reader.next();
    if (!frame.ok()) return frame.error();
    if (frame->type == kFrameRows) {
      if (rows.size() + frame->payload.size() > kMaxResponseBytes) {
        return Err(Errc::parse_error, "delta exceeds response cap");
      }
      rows.append(frame->payload);
      continue;
    }
    if (frame->type == kFrameEnd) {
      net::WireReader er(frame->payload);
      if (!er.get_varint(declared_rows) || !er.done()) {
        return Err(Errc::parse_error, "malformed end frame");
      }
      break;
    }
    return Err(Errc::parse_error, "unexpected frame inside delta");
  }

  CpuMeter unmetered;
  {
    ScopedCpuMeter scope(meter != nullptr ? *meter : unmetered);
    std::size_t applied = 0;
    auto st = apply_rows(*base_, rows, names_, &applied);
    if (!st.ok()) return st.error();
    if (applied != declared_rows) {
      return Err(Errc::parse_error, "delta row count mismatch");
    }
    last_version_ = to;
    out.report = *base_;
  }
  out.delta = true;
  out.bytes = request_bytes + reader.bytes_read();
  return out;
}

Result<std::string> Session::digest_exchange(net::Transport& transport,
                                             TimeUs timeout,
                                             std::string_view payload) {
  std::string request;
  gossip::put_digest_frames(request, payload, opts_.max_frame);
  auto stream = exchange(transport, timeout, request);
  if (!stream.ok()) {
    stream_.reset();
    return stream.error();
  }
  net::FrameReader reader(**stream, opts_.max_frame + 64);
  auto begin = reader.next();
  if (!begin.ok()) {
    stream_.reset();
    return begin.error();
  }
  if (begin->type == kFrameError) {
    stream_.reset();
    return Err(Errc::unsupported,
               "publisher error: " + std::string(begin->payload));
  }
  auto reply = gossip::read_digest_frames(reader, *begin,
                                          gossip::kMaxDigestBytes);
  if (!reply.ok()) stream_.reset();
  return reply;
}

Status Session::ping(net::Transport& transport, TimeUs timeout) {
  PollRequest req;
  req.op = kOpPing;
  req.session_id = session_id_;
  req.max_frame = opts_.max_frame;
  const std::string request = encode_poll(req);
  auto stream = exchange(transport, timeout, request);
  if (!stream.ok()) {
    stream_.reset();
    return stream.error();
  }
  net::FrameReader reader(**stream, opts_.max_frame);
  auto frame = reader.next();
  if (!frame.ok()) {
    stream_.reset();
    return frame.error();
  }
  if (frame->type != kFramePong) {
    stream_.reset();
    return Err(Errc::parse_error, "unexpected ping response");
  }
  return Status::success();
}

}  // namespace ganglia::fed
