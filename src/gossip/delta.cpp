#include "gossip/delta.hpp"

namespace ganglia::gossip {

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    net::put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

bool get_u64(net::WireReader& reader, std::uint64_t& v) {
  v = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint8_t byte = 0;
    if (!reader.get_u8(byte)) return false;
    v |= std::uint64_t{byte} << (8 * i);
  }
  return true;
}

bool get_text(net::WireReader& reader, std::string& out, std::size_t max,
              bool allow_empty) {
  std::string_view s;
  if (!reader.get_string(s, max) || (s.empty() && !allow_empty)) return false;
  out.assign(s);
  return true;
}

bool decode_row(net::WireReader& reader, MemberEntry& row) {
  std::uint8_t state = 0;
  std::uint64_t pairs = 0;
  if (!reader.get_u8(state) ||
      state > static_cast<std::uint8_t>(MemberState::left)) {
    return false;
  }
  row.state = static_cast<MemberState>(state);
  if (!get_text(reader, row.id, kMaxIdBytes, false) ||
      !get_text(reader, row.address, kMaxAddressBytes, false) ||
      !reader.get_varint(row.incarnation) ||
      !wire_row_ok(row.state, row.incarnation) || !reader.get_varint(pairs) ||
      pairs > kMaxMetaPairs) {
    return false;
  }
  for (std::uint64_t i = 0; i < pairs; ++i) {
    std::string key;
    std::string value;
    if (!get_text(reader, key, kMaxMetaBytes, false) ||
        !get_text(reader, value, kMaxMetaBytes, true)) {
      return false;
    }
    row.meta.emplace(std::move(key), std::move(value));
  }
  return true;
}

}  // namespace

void encode_row(std::string& out, const MemberEntry& row) {
  net::put_u8(out, static_cast<std::uint8_t>(row.state));
  net::put_string(out, row.id);
  net::put_string(out, row.address);
  net::put_varint(out, row.incarnation);
  net::put_varint(out, row.meta.size());
  for (const auto& [key, value] : row.meta) {
    net::put_string(out, key);
    net::put_string(out, value);
  }
}

std::string encode_message(const Message& message) {
  std::string out;
  net::put_u8(out, kMessageVersion);
  net::put_u8(out, static_cast<std::uint8_t>(message.kind));
  put_u64(out, message.digest);
  net::put_string(out, message.sender);
  if (message.kind == MessageKind::ping_req) {
    net::put_string(out, message.target_id);
  } else if (message.kind == MessageKind::sync) {
    net::put_string(out, message.page_from);
    net::put_string(out, message.page_to);
    net::put_varint(out, message.have.size());
    for (const std::uint64_t hash : message.have) put_u64(out, hash);
  }
  net::put_varint(out, message.rows.size());
  for (const MemberEntry& row : message.rows) encode_row(out, row);
  return out;
}

Result<Message> decode_message(std::string_view payload) {
  net::WireReader reader(payload);
  const auto fail = [] {
    return Error{Errc::parse_error, "gossip: malformed message"};
  };
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  if (!reader.get_u8(version) || version != kMessageVersion ||
      !reader.get_u8(kind) ||
      kind < static_cast<std::uint8_t>(MessageKind::ping) ||
      kind > static_cast<std::uint8_t>(MessageKind::sync)) {
    return fail();
  }
  Message message;
  message.kind = static_cast<MessageKind>(kind);
  if (!get_u64(reader, message.digest) ||
      !get_text(reader, message.sender, kMaxIdBytes, false)) {
    return fail();
  }
  if (message.kind == MessageKind::ping_req &&
      !get_text(reader, message.target_id, kMaxIdBytes, false)) {
    return fail();
  }
  if (message.kind == MessageKind::sync) {
    std::uint64_t count = 0;
    if (!get_text(reader, message.page_from, kMaxIdBytes, true) ||
        !get_text(reader, message.page_to, kMaxIdBytes, true) ||
        !reader.get_varint(count) || count > kMaxDigestEntries ||
        count * 8 > reader.remaining()) {
      return fail();
    }
    message.have.resize(static_cast<std::size_t>(count));
    for (std::uint64_t& hash : message.have) {
      if (!get_u64(reader, hash)) return fail();
    }
  }
  std::uint64_t row_count = 0;
  if (!reader.get_varint(row_count) || row_count > kMaxDigestEntries) {
    return fail();
  }
  for (std::uint64_t i = 0; i < row_count; ++i) {
    MemberEntry row;
    if (!decode_row(reader, row)) return fail();
    message.rows.push_back(std::move(row));
  }
  if (!reader.done()) return fail();
  return message;
}

void put_digest_frames(std::string& out, std::string_view payload,
                       std::size_t max_frame) {
  if (max_frame == 0) max_frame = 1;
  std::string begin;
  net::put_varint(begin, payload.size());
  net::put_frame(out, kFrameDigestBegin, begin);
  for (std::size_t off = 0; off < payload.size(); off += max_frame) {
    net::put_frame(out, kFrameDigestChunk,
                   payload.substr(off, std::min(max_frame,
                                                payload.size() - off)));
  }
}

namespace {

Result<std::uint64_t> digest_total(const net::Frame& begin,
                                   std::size_t max_payload) {
  if (begin.type != kFrameDigestBegin) {
    return Error{Errc::parse_error, "gossip: expected digest begin frame"};
  }
  net::WireReader reader(begin.payload);
  std::uint64_t total = 0;
  if (!reader.get_varint(total) || !reader.done() || total > max_payload) {
    return Error{Errc::parse_error, "gossip: bad digest begin frame"};
  }
  return total;
}

}  // namespace

net::RequestEnd framed_request_end(std::string_view unread,
                                   net::ScanState& scan, std::size_t max_frame,
                                   std::size_t max_payload) {
  // The head frame decides: a lone frame, or a digest Begin whose Chunks
  // follow.  `scan` resumes after the chunks already counted.
  net::Frame frame;
  std::size_t consumed = 0;
  switch (net::parse_frame(unread, max_frame, frame, consumed)) {
    case net::FrameParse::need_more:
      return net::RequestEnd::need_more();
    case net::FrameParse::error:
      return net::RequestEnd::malformed();
    case net::FrameParse::ok:
      break;
  }
  if (frame.type != kFrameDigestBegin) return net::RequestEnd::complete(consumed);
  const auto total = digest_total(frame, max_payload);
  if (!total.ok()) return net::RequestEnd::malformed();
  if (scan.offset == 0) scan.offset = consumed;
  while (scan.count < *total) {
    const auto parsed = net::parse_frame(unread.substr(scan.offset), max_frame,
                                         frame, consumed);
    if (parsed == net::FrameParse::need_more) return net::RequestEnd::need_more();
    if (parsed == net::FrameParse::error || frame.type != kFrameDigestChunk ||
        scan.count + frame.payload.size() > *total) {
      return net::RequestEnd::malformed();
    }
    scan.count += frame.payload.size();
    scan.offset += consumed;
  }
  return net::RequestEnd::complete(scan.offset);
}

Result<std::string> collect_digest_frames(std::string_view buf,
                                          std::size_t max_payload) {
  const std::size_t max_frame = max_payload + 64;
  net::ScanState scan;
  const net::RequestEnd end =
      framed_request_end(buf, scan, max_frame, max_payload);
  net::Frame frame;
  std::size_t consumed = 0;
  if (end.state != net::RequestEnd::State::complete ||
      end.consumed != buf.size() ||
      net::parse_frame(buf, max_frame, frame, consumed) != net::FrameParse::ok ||
      frame.type != kFrameDigestBegin) {
    return Error{Errc::parse_error, "gossip: malformed digest frames"};
  }
  std::string payload;
  for (buf.remove_prefix(consumed); !buf.empty(); buf.remove_prefix(consumed)) {
    (void)net::parse_frame(buf, max_frame, frame, consumed);
    payload.append(frame.payload);
  }
  return payload;
}

Result<std::string> read_digest_frames(net::FrameReader& reader,
                                       const net::Frame& begin,
                                       std::size_t max_payload) {
  auto total = digest_total(begin, max_payload);
  if (!total.ok()) return total.error();
  std::string payload;
  payload.reserve(static_cast<std::size_t>(*total));
  while (payload.size() < *total) {
    auto frame = reader.next();
    if (!frame.ok()) return frame.error();
    if (frame->type != kFrameDigestChunk ||
        payload.size() + frame->payload.size() > *total) {
      return Error{Errc::parse_error, "gossip: bad digest chunk"};
    }
    payload.append(frame->payload);
  }
  return payload;
}

}  // namespace ganglia::gossip
