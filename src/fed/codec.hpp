// Delta federation wire codec: frame types, row tags, size caps, and the
// poll-request encoding shared by the publisher (server) and session
// (client) halves of the protocol.
//
// The protocol is pull-driven: each poll the client sends one kFramePoll
// request carrying its session id, the last report version it holds and
// the view it keeps (View below); the server answers either with a delta
// (kFrameDeltaBegin, kFrameRows*, kFrameEnd) against the exact base report
// it remembers for that session, or with a full XML report
// (kFrameFullBegin, kFrameFullChunk*) when it has no usable base — new
// session, evicted session, version gap, a base of another view, or a
// delta that would not actually be smaller.  Any decode
// error on either side degrades to a full resync, never a crash; the
// legacy dump port stays available as the final fallback.
//
// Rows are context-stateful like tarantool's iproto replication rows: a
// kRowGridPush / kRowCluster / kRowHost row selects (or creates) the
// container that subsequent rows mutate, so per-metric rows carry a
// dictionary-interned name id and nothing else about their position.
// Host and metric names share the session's dictionary; a host attribute
// row carries only the fields that changed, and a VAL that is a plain
// decimal travels as packed digits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "net/framing.hpp"

namespace ganglia::fed {

/// Protocol magic carried in every poll request ("GFD1").
inline constexpr std::uint32_t kMagic = 0x31444647u;
inline constexpr std::uint32_t kCodecVersion = 3;

// Size caps, mirroring the gossip codec's defensive posture: nothing a
// peer sends may trigger an unbounded allocation.
inline constexpr std::size_t kMaxFrameBytes = 4u << 20;
inline constexpr std::size_t kMaxSessionIdBytes = 64;
inline constexpr std::size_t kMaxStringBytes = 64u << 10;
// One session's name dictionary: at most kMaxNameIds names totalling at
// most kMaxNameBytes, room for 100,000 host names of up to 80 bytes plus
// the metric names.  The differ answers a full rather than define past it;
// the applier refuses such a define, which resyncs the session.
inline constexpr std::size_t kMaxNameIds = 1u << 18;
inline constexpr std::size_t kMaxNameBytes = 8u << 20;
inline constexpr std::size_t kMaxResponseBytes = 64u << 20;
inline constexpr std::size_t kMinFrameBytes = 4096;

// -- frame types ------------------------------------------------------------

inline constexpr std::uint8_t kFramePoll = 1;       // client -> server
inline constexpr std::uint8_t kFramePing = 2;       // client -> server
inline constexpr std::uint8_t kFrameFullBegin = 3;  // varint version, total
inline constexpr std::uint8_t kFrameFullChunk = 4;  // raw XML bytes
inline constexpr std::uint8_t kFrameDeltaBegin = 5; // varint from, to
inline constexpr std::uint8_t kFrameRows = 6;       // packed rows
inline constexpr std::uint8_t kFrameEnd = 7;        // varint row_count
inline constexpr std::uint8_t kFramePong = 8;
inline constexpr std::uint8_t kFrameError = 9;      // string message

// -- row tags ---------------------------------------------------------------

inline constexpr std::uint8_t kRowDefineName = 1;    // varint id, string
inline constexpr std::uint8_t kRowReportAttrs = 2;   // version, source
inline constexpr std::uint8_t kRowGridPush = 3;      // string name
inline constexpr std::uint8_t kRowGridPop = 4;
inline constexpr std::uint8_t kRowGridAttrs = 5;     // authority, localtime
inline constexpr std::uint8_t kRowGridRemove = 6;    // string name
inline constexpr std::uint8_t kRowCluster = 7;       // string name
inline constexpr std::uint8_t kRowClusterAttrs = 8;  // localtime,owner,latlong,url
inline constexpr std::uint8_t kRowClusterRemove = 9; // string name
inline constexpr std::uint8_t kRowAdvance = 11;      // varint dt seconds
inline constexpr std::uint8_t kRowHost = 12;         // name_id
inline constexpr std::uint8_t kRowHostAttrs = 13;    // u8 mask, masked fields
inline constexpr std::uint8_t kRowHostRemove = 14;   // name_id
inline constexpr std::uint8_t kRowMetric = 15;       // full metric upsert
inline constexpr std::uint8_t kRowMetricValue = 16;  // name_id, VAL, tn
inline constexpr std::uint8_t kRowMetricTn = 17;     // name_id, tn
inline constexpr std::uint8_t kRowMetricRemove = 18; // name_id
inline constexpr std::uint8_t kRowSummaryHosts = 19; // varint up, down
inline constexpr std::uint8_t kRowSummaryMetric = 20;// name_id,f64 sum,num,type,units
inline constexpr std::uint8_t kRowSummaryMetricRemove = 21; // name_id
inline constexpr std::uint8_t kRowSummaryClear = 22;
inline constexpr std::uint8_t kRowSummarySum = 23;   // name_id, f64 sum

// kRowHostAttrs mask bits, in the order their fields follow the mask.  The
// fields are those that differ from the selected host (after any Advance;
// a host the row's select created starts default-constructed).  REPORTED
// and GMOND_STARTED travel as zigzag varint deltas against it, TN, TMAX
// and DMAX as varints, IP and LOCATION as strings.
inline constexpr std::uint8_t kHostIp = 1u << 0;
inline constexpr std::uint8_t kHostReported = 1u << 1;
inline constexpr std::uint8_t kHostTn = 1u << 2;
inline constexpr std::uint8_t kHostTmax = 1u << 3;
inline constexpr std::uint8_t kHostDmax = 1u << 4;
inline constexpr std::uint8_t kHostLocation = 1u << 5;
inline constexpr std::uint8_t kHostStarted = 1u << 6;
inline constexpr std::uint8_t kHostFields = 0x7f;

/// Whether a name dictionary holding `ids` names of `bytes` total may take
/// one more name of `size` bytes.  Both halves of a session apply it.
inline bool dict_admits(std::size_t ids, std::size_t bytes, std::size_t size) {
  return ids < kMaxNameIds && size <= kMaxStringBytes &&
         bytes + size <= kMaxNameBytes;
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// -- VAL codec (kRowMetric, kRowMetricValue) ---------------------------------
//
// A plain decimal -?(0|[1-9][0-9]*)(\.[0-9]+)? of at most kMaxValDigits
// digits is one byte, (fraction digits << 1) | negative, then a varint of
// its digits with the point removed.  Any other text is kValText followed
// by a length-prefixed string.  Either form rebuilds the exact text.

inline constexpr std::size_t kMaxValDigits = 19;
inline constexpr std::uint8_t kValText = 0xff;

void put_value(std::string& out, std::string_view value);

/// Decode one VAL into `value`.  Refuses a scale or digit count a plain
/// decimal of kMaxValDigits digits cannot have, and an unknown first byte.
bool get_value(net::WireReader& r, std::string& value);

// -- poll request -----------------------------------------------------------

inline constexpr std::uint8_t kOpPoll = 1;
inline constexpr std::uint8_t kOpPing = 2;

/// The document a poller keeps.  An N-level parent keeps a child gmetad's
/// grid only in summary form (paper section 2.2), so it asks for `summary`:
/// one GRID carrying the child's HOSTS and METRICS reduction and nothing
/// below it.  Everyone else asks for the whole tree.
enum class View : std::uint8_t { tree = 0, summary = 1 };
inline constexpr std::size_t kViews = 2;

struct PollRequest {
  std::uint8_t op = kOpPoll;
  std::string session_id;
  std::uint32_t codec_version = kCodecVersion;
  std::uint64_t last_version = 0;  // 0 = no base, want full
  std::uint64_t max_frame = kMaxFrameBytes;
  View view = View::tree;
};

/// Encode a poll/ping request as one complete frame.
std::string encode_poll(const PollRequest& req);

/// Decode a kFramePoll/kFramePing payload.  Rejects bad magic, another
/// codec version (before reading past it), oversized session ids, an
/// unknown view, and trailing garbage.
Result<PollRequest> decode_request(std::uint8_t frame_type,
                                   std::string_view payload);

/// Buffer of packed rows with recorded row boundaries, so the publisher
/// can split a large delta into kFrameRows frames without cutting a row.
struct RowBuffer {
  std::string bytes;
  std::vector<std::uint32_t> ends;  // byte offset just past each row

  void mark_row() { ends.push_back(static_cast<std::uint32_t>(bytes.size())); }
  std::size_t row_count() const noexcept { return ends.size(); }
  void clear() {
    bytes.clear();
    ends.clear();
  }
};

}  // namespace ganglia::fed
