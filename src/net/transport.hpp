// Transport abstraction: XML-over-stream connections between monitors.
//
// Ganglia's wide-area protocol is deliberately simple: a client connects, a
// server either dumps a whole XML report and closes (the "dump" port, 8651
// in real gmetad) or reads one query line and answers with a subtree (the
// "interactive" port, 8652).  Everything above the byte stream is expressed
// against these interfaces so the same gmetad code runs over real TCP
// (src/net/tcp.*) and over the deterministic in-memory fabric used by tests
// and benches (src/net/inmem.*), which also provides failure injection —
// stop failures, intermittent mid-stream closes, and timeouts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace ganglia::net {

/// One source buffer of a gather-write (see Stream::write_some).
struct ConstBuf {
  const char* data = nullptr;
  std::size_t size = 0;
};

/// Bidirectional byte stream (one accepted or dialed connection).
class Stream {
 public:
  virtual ~Stream() = default;

  /// Read up to `len` bytes.  Returns 0 on orderly EOF.
  virtual Result<std::size_t> read(char* buf, std::size_t len) = 0;

  /// Write the entire buffer.
  virtual Status write_all(std::string_view data) = 0;

  /// Close both directions; further reads fail or return EOF.
  virtual void close() = 0;

  /// Peer address ("host:port"), used for trust checks.
  virtual std::string peer_address() const = 0;

  // -- readiness / non-blocking I/O (event-driven servers) -----------------
  //
  // An event loop drives a stream through exactly one of two channels: the
  // OS descriptor (native_fd() >= 0, registered with an epoll-style
  // poller), or the readiness callback (fd-less in-memory streams, which
  // fire set_ready_notify whenever bytes arrive or the peer closes).  The
  // non-blocking read/write entry points are shared by both.

  /// OS descriptor backing the stream, or -1 (in-memory streams).
  virtual int native_fd() const noexcept { return -1; }

  /// Switch the descriptor between blocking mode (per-op timeouts) and
  /// non-blocking mode.  No-op for streams without a descriptor.
  virtual void set_nonblocking(bool enabled) { (void)enabled; }

  /// Register `fn` to fire whenever the stream may have become readable
  /// (bytes arrived or the peer closed); nullptr unregisters.  Only used
  /// for streams without a native fd.  `fn` may be invoked from any thread
  /// and must not call back into the stream.
  virtual void set_ready_notify(std::function<void()> fn) { (void)fn; }

  /// Non-blocking read: Errc::would_block instead of blocking when no
  /// bytes are buffered.  The default falls back to the blocking read(),
  /// which is only correct for callers that know data is pending.
  virtual Result<std::size_t> read_some(char* buf, std::size_t len) {
    return read(buf, len);
  }

  /// Gather-write whatever the transport accepts without blocking; returns
  /// bytes taken (0 when the transport is full — wait for writability).
  /// The default drains every buffer through write_all, which is correct
  /// for transports whose writes never block.
  virtual Result<std::size_t> write_some(const ConstBuf* bufs,
                                         std::size_t count);
};

/// Drain a stream to EOF (bounded).  This is the client side of the dump
/// protocol.  Fails with Errc::closed if the peer vanished before EOF could
/// be distinguished, or io_error/timeout per the underlying transport.
Result<std::string> read_to_eof(Stream& stream, std::size_t max_bytes = 64u << 20);

/// Read a single '\n'-terminated line (without the terminator, bounded).
Result<std::string> read_line(Stream& stream, std::size_t max_bytes = 64 << 10);

/// Listening endpoint, driven by an event loop (net::Reactor): readiness
/// arrives through the OS descriptor or the ready callback, and accepts
/// never block.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Stop accepting; later accepts fail with Errc::closed.
  virtual void close() = 0;

  /// Actual bound address (resolves ephemeral ports).
  virtual std::string address() const = 0;

  /// Non-blocking OS descriptor backing the listener, or -1 (in-memory).
  virtual int native_fd() const noexcept { return -1; }

  /// Register `fn` to fire whenever a connection may be waiting; nullptr
  /// unregisters.  Only used for listeners without a native fd.
  virtual void set_ready_notify(std::function<void()> fn) { (void)fn; }

  /// Non-blocking accept: Errc::would_block when nothing is queued,
  /// Errc::closed after close().  Accepted streams are non-blocking.
  virtual Result<std::unique_ptr<Stream>> accept_nonblocking() = 0;
};

/// Factory for listeners and outbound connections.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind and listen on `address` ("host:port"; port 0 picks a free port on
  /// TCP, a unique synthetic port in-memory).
  virtual Result<std::unique_ptr<Listener>> listen(std::string_view address) = 0;

  /// Dial `address`.  `timeout` bounds connection establishment and each
  /// subsequent read/write on the returned stream.
  virtual Result<std::unique_ptr<Stream>> connect(std::string_view address,
                                                  TimeUs timeout) = 0;
};

/// A synchronous request handler: receives whatever the client wrote before
/// its first read ("" for dump-style connections), returns the full
/// response.  The in-memory transport's service registration calls it
/// directly; net::ServiceServer serves it on a listener.
using ServiceFn = std::function<Result<std::string>(std::string_view request)>;

}  // namespace ganglia::net
