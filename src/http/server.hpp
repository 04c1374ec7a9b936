// HTTP/1.1 server: the HTTP protocol on the shared net::Reactor.
//
// The reactor (net/reactor.hpp) owns connections, idle deadlines, write
// backpressure and the worker pool; this file adds only what is HTTP: an
// incremental RequestParser per connection, persistent connections with
// pipelined requests answered sequentially in arrival order, 400 on
// malformed framing (the connection closes after the requests parsed
// before it are answered), 503 + Retry-After over the connection cap, and
// per-connection request budgets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.hpp"
#include "http/http.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace ganglia::http {

/// Request handler; runs on a worker-pool thread (never on the event
/// loop).  Must not throw — escaped exceptions are converted to a 500 and
/// the connection closed.
using Handler = std::function<Response(const Request&)>;

struct ServerOptions {
  /// Concurrent-connection cap; over-cap clients get an immediate 503.
  /// Reactor state is ~KBs per idle connection, so the default is C10K.
  std::size_t max_connections = 10000;
  /// Keep-alive budget: after this many requests the connection closes
  /// (Connection: close on the final response), bounding per-client state.
  std::size_t max_requests_per_connection = 1000;
  ParserLimits limits;
  std::size_t read_chunk = 16u << 10;
  /// Handler worker threads; 0 = auto (max(2, hw_concurrency/4), cap 8).
  std::size_t event_threads = 0;
  /// A connection with no read/write progress for this long is closed
  /// (counts in Stats::timeouts).  Defeats slow-loris: a request dribbled
  /// byte-by-byte must still finish within the idle window.
  TimeUs idle_timeout_us = 30 * kMicrosPerSecond;
  /// Per-connection buffered-response cap.  When a stalled reader's outbox
  /// reaches this, the server stops reading/dispatching for it until the
  /// outbox drains below the cap.
  std::size_t max_outbox_bytes = 4u << 20;
};

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer() { stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind `address` on `transport` and serve until stop().
  Status start(net::Transport& transport, const std::string& address,
               Handler handler, ServerOptions options = {});

  /// Close the listener and every live connection, then join all threads.
  void stop();

  bool running() const noexcept { return reactor_.running(); }
  std::string address() const { return reactor_.address(); }
  std::size_t active_connections() const noexcept {
    return reactor_.active_connections();
  }

  /// Reactor counters (connections, 503s at the cap, idle timeouts,
  /// backpressure) plus the HTTP ones.
  struct Stats : net::Reactor::Stats {
    std::uint64_t requests = 0;      ///< dispatched to a handler
    std::uint64_t bad_requests = 0;  ///< malformed framing (400-closed)
  };
  Stats stats() const;

 private:
  class Codec;

  /// Worker side of one parsed request (the `served`-th on its connection).
  net::Reply serve(const Request& request, std::size_t served);
  /// Worker side of the parse-error marker: the ordered 400 that closes.
  net::Reply reject(const std::string& parse_error);

  Handler handler_;
  ServerOptions options_;
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_bad_requests_{0};
  net::Reactor reactor_;  ///< declared last: stopped before the rest goes
};

}  // namespace ganglia::http
