#include "net/framing.hpp"

#include <bit>
#include <cstring>

namespace ganglia::net {

namespace {

// Longest LEB128 encoding of a u64 is 10 bytes.
constexpr int kMaxVarintBytes = 10;

/// Decode a varint from data[pos..).  Returns false on truncation or a
/// non-canonical >10-byte encoding.
bool decode_varint(std::string_view data, std::size_t& pos, std::uint64_t& v) {
  std::uint64_t out = 0;
  int shift = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (pos >= data.size()) return false;
    const auto byte = static_cast<std::uint8_t>(data[pos++]);
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject bits beyond 64 in the final byte of a max-length encoding.
      if (i == kMaxVarintBytes - 1 && (byte & 0x7e) != 0) return false;
      v = out;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_f64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

bool WireReader::get_varint(std::uint64_t& v) {
  if (failed_ || !decode_varint(data_, pos_, v)) {
    failed_ = true;
    return false;
  }
  return true;
}

bool WireReader::get_u8(std::uint8_t& v) {
  if (failed_ || pos_ >= data_.size()) {
    failed_ = true;
    return false;
  }
  v = static_cast<std::uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::get_f64(double& v) {
  if (failed_ || data_.size() - pos_ < 8) {
    failed_ = true;
    return false;
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
            << (8 * i);
  }
  pos_ += 8;
  v = std::bit_cast<double>(bits);
  return true;
}

bool WireReader::get_string(std::string_view& s, std::size_t max) {
  std::uint64_t len = 0;
  if (!get_varint(len)) return false;
  if (len > max || len > data_.size() - pos_) {
    failed_ = true;
    return false;
  }
  s = data_.substr(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return true;
}

void put_frame(std::string& out, std::uint8_t type, std::string_view payload) {
  put_varint(out, payload.size() + 1);
  put_u8(out, type);
  out.append(payload);
}

FrameParse parse_frame(std::string_view buf, std::size_t max_frame,
                       Frame& frame, std::size_t& consumed) {
  std::size_t pos = 0;
  std::uint64_t total = 0;
  if (!decode_varint(buf, pos, total)) {
    // Truncated varint: only "need more" while it could still complete.
    return buf.size() < kMaxVarintBytes ? FrameParse::need_more
                                        : FrameParse::error;
  }
  if (total == 0 || total > max_frame) return FrameParse::error;
  if (buf.size() - pos < total) return FrameParse::need_more;
  frame.type = static_cast<std::uint8_t>(buf[pos]);
  frame.payload = buf.substr(pos + 1, static_cast<std::size_t>(total) - 1);
  consumed = pos + static_cast<std::size_t>(total);
  return FrameParse::ok;
}

Result<Frame> FrameReader::next() {
  for (;;) {
    Frame frame;
    std::size_t consumed = 0;
    const std::string_view pending{buf_.data() + start_, buf_.size() - start_};
    switch (parse_frame(pending, max_frame_, frame, consumed)) {
      case FrameParse::ok:
        start_ += consumed;
        return frame;
      case FrameParse::error:
        return Err(Errc::parse_error, "malformed or oversized frame");
      case FrameParse::need_more:
        break;
    }
    // Compact the consumed prefix before growing the buffer.
    if (start_ > 0) {
      buf_.erase(0, start_);
      start_ = 0;
    }
    char chunk[16 * 1024];
    auto n = stream_.read(chunk, sizeof(chunk));
    if (!n.ok()) return n.error();
    if (*n == 0) {
      return buf_.empty() ? Err(Errc::closed, "peer closed")
                          : Err(Errc::parse_error, "EOF inside frame");
    }
    buf_.append(chunk, *n);
    bytes_read_ += *n;
  }
}

}  // namespace ganglia::net
