// Length-prefixed binary framing over Stream, plus the primitive wire
// encodings (LEB128 varints, length-prefixed strings, raw f64) the delta
// federation codec builds on.
//
// A frame on the wire is:
//
//     varint total_len   (= 1 + payload size, so a frame is self-delimiting)
//     u8     type
//     bytes  payload
//
// Everything is bounds-checked against a caller-supplied cap so a hostile
// or corrupted peer can never make a reader allocate unbounded memory; on
// any malformed input the reader reports a hard error and the session layer
// above falls back to a full-XML resync.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "net/transport.hpp"

namespace ganglia::net {

// -- primitive encodings ----------------------------------------------------

/// Append a LEB128 varint (7 bits per byte, high bit = continuation).
void put_varint(std::string& out, std::uint64_t v);

/// Append one raw byte.
inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

/// Append an f64 as 8 little-endian bytes of its bit pattern (exact
/// round-trip, unlike any decimal rendering).
void put_f64(std::string& out, double v);

/// Append a varint length followed by the raw bytes.
void put_string(std::string& out, std::string_view s);

/// Sequential bounds-checked reader over an in-memory buffer.  All getters
/// return false (and leave the reader poisoned) on truncation or cap
/// violation; callers check once per row rather than per field.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool get_varint(std::uint64_t& v);
  bool get_u8(std::uint8_t& v);
  bool get_f64(double& v);
  /// Reads a varint length (rejecting anything over `max`) then the bytes.
  bool get_string(std::string_view& s, std::size_t max);

  bool failed() const noexcept { return failed_; }
  bool done() const noexcept { return !failed_ && pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// -- frames -----------------------------------------------------------------

/// A decoded frame; `payload` aliases the buffer it was parsed from.
struct Frame {
  std::uint8_t type = 0;
  std::string_view payload;
};

/// Append a complete frame to `out`.
void put_frame(std::string& out, std::uint8_t type, std::string_view payload);

enum class FrameParse { ok, need_more, error };

/// Try to parse one frame from the head of `buf`.  `max_frame` caps the
/// declared length (oversized or malformed input -> error, never a huge
/// allocation).  On ok, `consumed` is the encoded size of the frame.
FrameParse parse_frame(std::string_view buf, std::size_t max_frame,
                       Frame& frame, std::size_t& consumed);

/// Blocking frame reader over a Stream.  Buffers internally and yields one
/// frame per next() call; the returned payload aliases the internal buffer
/// and is valid only until the following next().
class FrameReader {
 public:
  explicit FrameReader(Stream& stream, std::size_t max_frame)
      : stream_(stream), max_frame_(max_frame) {}

  /// Read the next frame.  Errc::closed on clean EOF at a frame boundary,
  /// Errc::parse_error on malformed/oversized input.
  Result<Frame> next();

  /// Bytes consumed from the stream so far (frame accounting for stats).
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }

 private:
  Stream& stream_;
  std::size_t max_frame_;
  std::string buf_;
  std::size_t start_ = 0;  // consumed prefix of buf_
  std::uint64_t bytes_read_ = 0;
};

}  // namespace ganglia::net
