// Server half of the delta federation protocol.
//
// A Publisher answers framed poll requests against whatever document the
// DocProvider returns for the view the request names, remembering
// per-session the exact report each peer last acknowledged so the next
// poll can be answered with a row delta against it.  Sessions are soft
// state: they are keyed by the client's opaque session id (not the
// connection — one-shot request/response transports work fine),
// LRU-evicted past max_sessions, and an evicted or unknown session simply
// gets a full-XML resync.  Every response is a
// complete byte string, so the same code serves the in-memory fabric's
// one-exchange service streams and a persistent TCP accept loop.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "fed/codec.hpp"
#include "fed/diff.hpp"
#include "net/transport.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::fed {

/// One published document: an immutable report plus its version.  Equal
/// versions of one view MUST mean byte-identical reports.
struct Doc {
  std::shared_ptr<const Report> report;
  std::uint64_t version = 0;
};

/// The current document in the requested view.  A provider with only one
/// document (a gmond's cluster has no grid to summarise) may ignore it.
using DocProvider = std::function<Doc(View)>;

struct PublisherOptions {
  std::size_t max_sessions = 64;
  std::size_t max_frame = kMaxFrameBytes;
  /// Cap on a reassembled piggybacked membership digest payload.
  std::size_t max_digest_bytes = 4u << 20;
};

/// Point-in-time counters for the stats route.
struct PublisherStats {
  std::uint64_t polls = 0;
  std::uint64_t deltas = 0;      ///< responses answered with a row delta
  std::uint64_t fulls = 0;       ///< responses answered with full XML
  std::uint64_t pings = 0;
  std::uint64_t digests = 0;     ///< piggybacked membership exchanges
  std::uint64_t errors = 0;      ///< malformed/unsupported requests
  std::uint64_t evictions = 0;   ///< sessions dropped by the LRU cap
  std::uint64_t bytes_out = 0;
  std::size_t sessions = 0;      ///< live session count
};

class Publisher {
 public:
  Publisher(DocProvider provider, PublisherOptions opts = {});

  /// Answer one request (a single framed kFramePoll/kFramePing).  Always
  /// returns a complete framed response; garbage in means a kFrameError
  /// frame out, never a crash.
  std::string serve(std::string_view request);

  /// Adapter for in-memory transport service registration.
  net::ServiceFn service();

  /// Receiver for piggybacked membership digests: one reassembled digest
  /// payload in, one payload out (the gmetad wires this to its gossip
  /// agent).  Requests with digest frames answer through it, sharing the
  /// poll stream; without a handler they get a kFrameError.
  using DigestHandler =
      std::function<Result<std::string>(std::string_view payload)>;
  void set_digest_handler(DigestHandler handler);

  PublisherStats stats() const;

 private:
  struct Session {
    std::mutex mutex;
    std::uint64_t version = 0;
    View view = View::tree;  ///< the view `base` was served in
    std::shared_ptr<const Report> base;
    Dictionaries dict;
    std::uint64_t last_used = 0;
  };

  /// The last full document served in one view.
  struct Full {
    std::uint64_t version = 0;
    std::shared_ptr<const std::string> xml;  ///< dropped once stale
    std::uint64_t size = 0;                  ///< kept: the delta size cap
  };

  std::shared_ptr<Session> session_for(const std::string& id);
  std::string serve_digest(std::string_view request);
  std::shared_ptr<const std::string> xml_for(View view, const Doc& doc);
  std::uint64_t last_full_size(View view);
  /// A delta served at `version` means the cached full of any other
  /// version of that view has no reader left: drop its XML, keep its size.
  void drop_stale_xml(View view, std::uint64_t version);
  void respond_full(std::string& out, View view, const Doc& doc,
                    std::size_t max_payload, Session* sess);
  static void respond_error(std::string& out, std::string_view message);

  DocProvider provider_;
  PublisherOptions opts_;

  mutable std::mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t use_tick_ = 0;

  std::mutex xml_mutex_;
  std::array<Full, kViews> fulls_by_view_;

  std::mutex digest_mutex_;
  DigestHandler digest_handler_;

  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> deltas_{0};
  std::atomic<std::uint64_t> fulls_{0};
  std::atomic<std::uint64_t> pings_{0};
  std::atomic<std::uint64_t> digests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace ganglia::fed
