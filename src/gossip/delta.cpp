#include "gossip/delta.hpp"

namespace ganglia::gossip {

namespace {

void encode_ack(std::string& out, const DigestAck& ack) {
  net::put_u8(out, static_cast<std::uint8_t>(ack.kind));
  if (ack.kind == AckKind::cursor) {
    net::put_varint(out, ack.epoch);
    net::put_varint(out, ack.seq);
    net::put_varint(out, ack.names);
  }
}

bool decode_ack(net::WireReader& reader, DigestAck& ack) {
  std::uint8_t kind = 0;
  if (!reader.get_u8(kind)) return false;
  if (kind > static_cast<std::uint8_t>(AckKind::cursor)) return false;
  ack.kind = static_cast<AckKind>(kind);
  if (ack.kind == AckKind::cursor) {
    return reader.get_varint(ack.epoch) && reader.get_varint(ack.seq) &&
           reader.get_varint(ack.names) && ack.names <= kMaxDigestNames;
  }
  return true;
}

bool decode_row(net::WireReader& reader, DigestRow& row) {
  std::uint8_t flags = 0;
  if (!reader.get_u8(flags)) return false;
  if ((flags & ~kRowFlagsMask) != 0) return false;
  row.flags = flags;
  std::uint64_t name_id = 0;
  if (!reader.get_varint(name_id) || name_id >= kMaxDigestNames) return false;
  row.name_id = static_cast<std::uint32_t>(name_id);
  std::string_view s;
  if ((flags & kRowDefine) != 0) {
    if (!reader.get_string(s, kMaxDigestIdBytes) || s.empty()) return false;
    row.id.assign(s);
  }
  if ((flags & kRowFields) != 0) {
    if (!reader.get_string(s, kMaxDigestAddrBytes) || s.empty()) return false;
    row.address.assign(s);
  }
  if ((flags & kRowMeta) != 0) {
    // Metadata only travels alongside fresh fields; a bare meta flag is
    // structurally meaningless and rejected.
    if ((flags & kRowFields) == 0) return false;
    std::uint64_t pairs = 0;
    if (!reader.get_varint(pairs) || pairs > kMaxDigestMetaPairs) return false;
    for (std::uint64_t i = 0; i < pairs; ++i) {
      std::string_view key;
      std::string_view value;
      if (!reader.get_string(key, kMaxDigestMetaBytes) || key.empty()) {
        return false;
      }
      if (!reader.get_string(value, kMaxDigestMetaBytes)) return false;
      row.meta.emplace(std::string(key), std::string(value));
    }
  }
  return reader.get_varint(row.incarnation) && reader.get_varint(row.heartbeat);
}

}  // namespace

void encode_digest_row(std::string& out, const DigestRow& row) {
  net::put_u8(out, row.flags);
  net::put_varint(out, row.name_id);
  if ((row.flags & kRowDefine) != 0) net::put_string(out, row.id);
  if ((row.flags & kRowFields) != 0) net::put_string(out, row.address);
  if ((row.flags & kRowMeta) != 0) {
    net::put_varint(out, row.meta.size());
    for (const auto& [key, value] : row.meta) {
      net::put_string(out, key);
      net::put_string(out, value);
    }
  }
  net::put_varint(out, row.incarnation);
  net::put_varint(out, row.heartbeat);
}

std::string encode_binary_digest(const BinaryDigest& digest) {
  std::string out;
  net::put_varint(out, kDigestMagic);
  net::put_u8(out, static_cast<std::uint8_t>(digest.kind));
  net::put_string(out, digest.sender_id);
  encode_ack(out, digest.ack);
  net::put_varint(out, digest.epoch);
  net::put_varint(out, digest.from_seq);
  net::put_varint(out, digest.to_seq);
  net::put_varint(out, digest.rows.size());
  for (const DigestRow& row : digest.rows) {
    encode_digest_row(out, row);
  }
  return out;
}

Result<BinaryDigest> decode_binary_digest(std::string_view payload) {
  net::WireReader reader(payload);
  const auto fail = [] {
    return Error{Errc::parse_error, "gossip: malformed binary digest"};
  };
  std::uint64_t magic = 0;
  if (!reader.get_varint(magic) || magic != kDigestMagic) return fail();
  BinaryDigest digest;
  std::uint8_t kind = 0;
  if (!reader.get_u8(kind) ||
      kind < static_cast<std::uint8_t>(DigestKind::full) ||
      kind > static_cast<std::uint8_t>(DigestKind::delta)) {
    return fail();
  }
  digest.kind = static_cast<DigestKind>(kind);
  std::string_view s;
  if (!reader.get_string(s, kMaxDigestIdBytes) || s.empty()) return fail();
  digest.sender_id.assign(s);
  if (!decode_ack(reader, digest.ack)) return fail();
  std::uint64_t row_count = 0;
  if (!reader.get_varint(digest.epoch) || !reader.get_varint(digest.from_seq) ||
      !reader.get_varint(digest.to_seq) || !reader.get_varint(row_count) ||
      row_count > kMaxDigestEntries) {
    return fail();
  }
  if (digest.from_seq > digest.to_seq) return fail();
  digest.rows.reserve(static_cast<std::size_t>(row_count));
  for (std::uint64_t i = 0; i < row_count; ++i) {
    DigestRow row;
    if (!decode_row(reader, row)) return fail();
    digest.rows.push_back(std::move(row));
  }
  if (!reader.done()) return fail();
  return digest;
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
