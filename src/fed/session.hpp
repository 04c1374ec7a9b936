// Client half of the delta federation protocol.
//
// A Session owns the polling-side state for one upstream publisher: the
// opaque session id, the last acknowledged report version, the base report
// deltas are applied to, and the client half of the name dictionary.
// Each poll() sends one framed request and interprets the response:
//
//   FullBegin/FullChunk*  -> parse full XML, replace the base (resync)
//   DeltaBegin/Rows*/End  -> apply rows to the base in place
//   Error / anything odd  -> invalidate the base and report an error;
//                            the caller falls back to the legacy XML dump
//
// The session keeps the underlying stream open and reuses it when the
// transport allows (real TCP); one-exchange transports (the in-memory
// service fabric) are detected via Errc::unsupported on reuse and get a
// fresh connection per poll.  Loss, peer restart, and session eviction all
// surface as a full resync on the next successful poll — never as
// divergence, because the publisher only sends a delta when the client's
// acknowledged version matches the exact base it remembers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/cpu_timer.hpp"
#include "common/result.hpp"
#include "fed/codec.hpp"
#include "net/transport.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::fed {

struct SessionOptions {
  std::string address;                       ///< publisher "host:port"
  std::size_t max_frame = kMaxFrameBytes;    ///< advertised frame cap
};

/// Result of one successful poll.
struct Outcome {
  Report report;          ///< the complete, post-application document
  std::size_t bytes = 0;  ///< request + response bytes on the wire
  bool delta = false;     ///< true when answered incrementally
  bool resync = false;    ///< true when a held base was replaced by a full
};

class Session {
 public:
  explicit Session(SessionOptions opts);

  /// One poll round-trip for the document in `view`.  On any error the
  /// base is invalidated, so the next poll requests a full resync; a base
  /// held in another view is answered with a full too.  `meter`, when set,
  /// is charged for decode/apply/parse CPU (never for I/O waits).
  Result<Outcome> poll(net::Transport& transport, TimeUs timeout,
                       CpuMeter* meter = nullptr, View view = View::tree);

  /// Heartbeat: one ping/pong round-trip on the persistent stream, keeping
  /// NATs and idle-timeout middleboxes from reaping it between polls.
  Status ping(net::Transport& transport, TimeUs timeout);

  /// Piggyback one membership digest exchange on the poll stream: frame
  /// `payload` as digest frames, send it like any other request, and read
  /// back the peer's digest payload.  Digest failures reset only the
  /// stream (it may be desynced), never the poll base — version matching
  /// keeps the next poll correct either way.
  Result<std::string> digest_exchange(net::Transport& transport,
                                      TimeUs timeout,
                                      std::string_view payload);

  /// Drop the base and the stream: the next poll performs a full resync.
  void invalidate();

  const std::string& address() const noexcept { return opts_.address; }
  bool has_base() const noexcept { return base_.has_value(); }
  std::uint64_t last_version() const noexcept { return last_version_; }

 private:
  /// Send `request` reusing the persistent stream when possible, falling
  /// back to a fresh connection; returns the stream to read the response
  /// from.  `reused` reports whether an old stream answered.
  Result<net::Stream*> exchange(net::Transport& transport, TimeUs timeout,
                                const std::string& request);

  Result<Outcome> read_response(net::Stream& stream, std::size_t request_bytes,
                                CpuMeter* meter);

  SessionOptions opts_;
  std::string session_id_;
  std::uint64_t last_version_ = 0;
  std::optional<Report> base_;
  std::vector<std::string> names_;
  std::unique_ptr<net::Stream> stream_;
  bool reuse_ok_ = true;  ///< cleared when the transport is one-exchange
};

}  // namespace ganglia::fed
