// The gossip wire: SWIM membership messages over net/framing.
//
// Five message kinds carry the whole protocol (gossip/agent.hpp):
//
//   ping      "are you there?"              answered by ack
//   ping_req  "ping `target` for me"         answered by ack or nack
//   sync      one anti-entropy page          answered by sync
//
// Every message names its sender by id alone and carries the sender's
// digest (gossip/member_table.hpp), so a differing digest is how two
// members notice that their views differ.  A member's address, state and
// incarnation travel only in its row, and the receiver resolves every id
// against its own table: an address enters the table only through a row
// or a seed (gossip/agent.hpp).  The sender's own row rides in `rows`
// while it is news (the first 3·⌈log10(n+1)⌉ messages of any kind after it
// last changed) and in every sync request, so a settled probe carries no
// row at all.  Pings, acks, ping-reqs and nacks also piggyback other
// membership news: rows that changed recently.  A sync request names one
// page of the requester's id order — the ids after `page_from` up to
// `page_to`, "" meaning the end — and the 8-byte hashes (row_hash) of the
// rows it holds there; the reply carries the responder's rows in that page
// whose hashes the request lacks, and its `page_to` says how far it got.
//
// One message payload (before framing):
//
//   u8      version             3 (GGS3)
//   u8      kind
//   u64     digest              sender's digest, little-endian
//   string  sender              the sender's id
//   [ping_req: string target_id]
//   [sync:     string page_from, string page_to,
//              varint n, n * u64 row hash]
//   varint  row_count
//   row*    row_count
//
// and a row is:
//
//   u8      state               ALIVE | SUSPECT | LEFT (never DEAD)
//   string  id
//   string  address
//   varint  incarnation
//   varint  n, n * (string key, string value)
//
// The decoder is structural and bounded: every string, row count, hash
// count and metadata block has a hard cap, no id or address may be empty,
// every row must pass wire_row_ok (no DEAD row, no incarnation past
// kMaxIncarnation, no doubt at it), and anything malformed — a payload of
// an earlier wire (GGS2 or GGS1, which began with a varint magic) included
// — is refused whole.
//
// Frames: a message rides the GFD1 frame space as kFrameDigestBegin
// (varint total payload size) followed by kFrameDigestChunk frames, each
// bounded by the negotiated max_frame — the same chunking fed::Publisher
// applies to full dumps.  This is what lets gossip piggyback on an open
// federation connection: the publisher routes digest frames to the gossip
// agent and everything else to the poll codec, one persistent stream for
// polls and membership.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "gossip/member_table.hpp"
#include "net/framing.hpp"
#include "net/service_server.hpp"

namespace ganglia::gossip {

// Message frame types, allocated from the GFD1 frame-type space
// (fed/codec.hpp stops at kFrameError = 9).
inline constexpr std::uint8_t kFrameDigestBegin = 10;
inline constexpr std::uint8_t kFrameDigestChunk = 11;

/// The payload's first byte: GGS3.
inline constexpr std::uint8_t kMessageVersion = 3;

enum class MessageKind : std::uint8_t {
  ping = 1,
  ack = 2,
  ping_req = 3,
  nack = 4,
  sync = 5,
};

struct Message {
  MessageKind kind = MessageKind::ping;
  std::uint64_t digest = 0;  ///< sender's digest (MemberTable::digest)
  std::string sender;  ///< the sender's id
  /// ping_req: the member to probe, by id; the relay pings the address it
  /// holds for it.
  std::string target_id;
  /// sync: the page, (page_from, page_to] in id order ("" = the end).
  std::string page_from;
  std::string page_to;
  std::vector<std::uint64_t> have;  ///< sync request: rows held, hashed
  /// News (the sender's own row among it while that is news), or a sync
  /// reply's page.
  std::vector<MemberEntry> rows;
};

// Hard caps the decoder enforces, beside kMaxDigestEntries and
// kMaxDigestBytes (gossip/message.hpp), so no message can balloon a table.
inline constexpr std::size_t kMaxIdBytes = 256;
inline constexpr std::size_t kMaxAddressBytes = 256;
inline constexpr std::size_t kMaxMetaPairs = 64;
inline constexpr std::size_t kMaxMetaBytes = 2048;

std::string encode_message(const Message& message);

/// Append one encoded row to `out` (the incremental form the agent uses to
/// keep a message under its byte cap row by row).
void encode_row(std::string& out, const MemberEntry& row);

/// Parse and validate one message payload.
Result<Message> decode_message(std::string_view payload);

// -- framing ----------------------------------------------------------------

/// Append a message payload as Begin + Chunk frames, each chunk bounded by
/// `max_frame` payload bytes.
void put_digest_frames(std::string& out, std::string_view payload,
                       std::size_t max_frame);

/// Reassemble a payload from a complete frame buffer (the in-memory
/// service path): Begin, then exactly enough Chunks, nothing trailing.
Result<std::string> collect_digest_frames(std::string_view buf,
                                          std::size_t max_payload);

/// Request-boundary rule of the framed ports (federation, gossip): one
/// frame, or a digest Begin frame followed by all its Chunks.  Malformed
/// when a frame exceeds `max_frame` or a message's total `max_payload`.
net::RequestEnd framed_request_end(std::string_view unread,
                                   net::ScanState& scan, std::size_t max_frame,
                                   std::size_t max_payload);

/// Reassemble from a stream: `begin` is the already-read Begin frame, the
/// chunks are pulled from `reader`.
Result<std::string> read_digest_frames(net::FrameReader& reader,
                                       const net::Frame& begin,
                                       std::size_t max_payload);

}  // namespace ganglia::gossip
