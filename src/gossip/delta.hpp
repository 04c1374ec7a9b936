// GGD1, the gossip wire: membership digests over net/framing.
//
// Shipping the whole member table every exchange costs O(n) per exchange,
// O(n²) grid-wide.  This codec is the gossip twin of the fed delta
// protocol: each sender keeps a per-peer cursor of what the peer last
// acknowledged and ships only the rows whose (incarnation, heartbeat,
// state, metadata) changed since, with member ids interned into a
// per-session dictionary so a steady-state row costs a handful of bytes.
//
// One digest payload (before framing):
//
//   varint  magic "GGD1"
//   u8      kind            full | delta
//   string  sender_id
//   u8      ack.kind        resync | cursor
//   [cursor: varint epoch, varint seq, varint names]
//   varint  epoch           sender's dictionary generation
//   varint  from_seq        cursor floor this delta starts at (0 for full)
//   varint  to_seq          sender table seq covered by this digest
//   varint  row_count
//   row*    row_count
//
// Every digest — request or reply — carries an `ack` describing what the
// sender has applied *from the opposite stream*, so one push-pull exchange
// advances both cursors.  A row is:
//
//   u8      flags           define | fields | meta | left
//   varint  name_id
//   [define: string id]     binds name_id -> id (append or overwrite)
//   [fields: string address]
//   [meta:   varint n, n * (string key, string value)]
//   varint  incarnation
//   varint  heartbeat
//
// `fields` marks the address (and metadata, when `meta` is also set) as
// present; a row without it asserts the receiver already holds the
// member's current address/metadata from this same session and fills them
// from its own table.  The receiver is strict, exactly like fed::apply:
// unknown dictionary id, a gap (from_seq beyond what was applied), a
// dictionary-epoch mismatch, a fill-in for a row it no longer holds — any
// of these rejects the whole digest and answers with a resync ack, which
// makes the sender rebuild a self-contained full table.  Corruption can
// cost a round trip; it can never diverge a table.
//
// A digest that would pass the byte cap or kMaxDigestEntries rows is cut
// at a row boundary and claims only the prefix it covers (to_seq wound
// back to the last row shipped); the rest follows as deltas.  So a table
// too large for one digest reaches a new peer as a full prefix plus
// deltas.
//
// Frames: a digest rides the GFD1 frame space as kFrameDigestBegin (varint
// total payload size) followed by kFrameDigestChunk frames, each bounded
// by the negotiated max_frame — the same chunking fed::Publisher applies
// to full dumps, so a 10k-member table can never emit one unbounded frame.
// This is what lets a digest piggyback on an open federation connection:
// the publisher routes digest frames to the gossip agent and everything
// else to the poll codec, one persistent stream for polls, pings, and
// membership.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "gossip/message.hpp"
#include "net/framing.hpp"
#include "net/service_server.hpp"

namespace ganglia::gossip {

// Digest frame types, allocated from the GFD1 frame-type space
// (fed/codec.hpp stops at kFrameError = 9).
inline constexpr std::uint8_t kFrameDigestBegin = 10;
inline constexpr std::uint8_t kFrameDigestChunk = 11;

/// Payload magic: "GGD1" little-endian.
inline constexpr std::uint64_t kDigestMagic = 0x31444747;

enum class DigestKind : std::uint8_t {
  full = 1,   ///< self-contained table snapshot (resets the session)
  delta = 2,  ///< rows changed since from_seq, against the session
};

enum class AckKind : std::uint8_t {
  resync = 0,  ///< no valid session for your stream: send me a full table
  cursor = 1,  ///< applied your stream through (epoch, seq, names)
};

/// What the digest's sender has applied from the receiver's stream.
struct DigestAck {
  AckKind kind = AckKind::resync;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t names = 0;  ///< dictionary entries applied (dense prefix)
};

// Row flags.
inline constexpr std::uint8_t kRowDefine = 0x01;  ///< binds name_id -> id
inline constexpr std::uint8_t kRowFields = 0x02;  ///< address (+meta) present
inline constexpr std::uint8_t kRowMeta = 0x04;    ///< metadata pairs follow
inline constexpr std::uint8_t kRowLeft = 0x08;    ///< LEFT tombstone
inline constexpr std::uint8_t kRowFlagsMask = 0x0f;

struct DigestRow {
  std::uint8_t flags = 0;
  std::uint32_t name_id = 0;
  std::string id;       ///< set iff kRowDefine
  std::string address;  ///< set iff kRowFields
  std::map<std::string, std::string> meta;  ///< meaningful iff kRowMeta
  std::uint64_t incarnation = 0;
  std::uint64_t heartbeat = 0;
};

struct BinaryDigest {
  DigestKind kind = DigestKind::full;
  std::string sender_id;
  DigestAck ack;
  std::uint64_t epoch = 0;
  std::uint64_t from_seq = 0;
  std::uint64_t to_seq = 0;
  std::vector<DigestRow> rows;
};

// Hard caps the decoder enforces, beside kMaxDigestEntries and
// kMaxDigestBytes (gossip/message.hpp), so no digest can balloon a table.
inline constexpr std::size_t kMaxDigestIdBytes = 256;
inline constexpr std::size_t kMaxDigestAddrBytes = 256;
inline constexpr std::size_t kMaxDigestMetaPairs = 64;
inline constexpr std::size_t kMaxDigestMetaBytes = 2048;
inline constexpr std::size_t kMaxDigestNames = 65536;

std::string encode_binary_digest(const BinaryDigest& digest);

/// Append one encoded row to `out` (the incremental form the agent uses to
/// enforce the per-digest byte cap row by row).
void encode_digest_row(std::string& out, const DigestRow& row);

/// Parse + validate one digest payload.  Structural validation only; the
/// session-level checks (epoch, cursor floor, dictionary resolution) are
/// the agent's.
Result<BinaryDigest> decode_binary_digest(std::string_view payload);

// -- framing ----------------------------------------------------------------

/// Append a digest payload as Begin + Chunk frames, each chunk bounded by
/// `max_frame` payload bytes.
void put_digest_frames(std::string& out, std::string_view payload,
                       std::size_t max_frame);

/// Reassemble a digest payload from a complete frame buffer (the in-memory
/// service path): Begin, then exactly enough Chunks, nothing trailing.
Result<std::string> collect_digest_frames(std::string_view buf,
                                          std::size_t max_payload);

/// Request-boundary rule of the framed ports (federation, gossip): one
/// frame, or a digest Begin frame followed by all its Chunks.  Malformed
/// when a frame exceeds `max_frame` or a digest's total `max_payload`.
net::RequestEnd framed_request_end(std::string_view unread,
                                   net::ScanState& scan, std::size_t max_frame,
                                   std::size_t max_payload);

/// Reassemble from a stream: `begin` is the already-read Begin frame, the
/// chunks are pulled from `reader`.
Result<std::string> read_digest_frames(net::FrameReader& reader,
                                       const net::Frame& begin,
                                       std::size_t max_payload);

}  // namespace ganglia::gossip
