// Event-driven connection reactor: the one connection model every server
// port runs on (DESIGN.md, "Connection model").
//
// One event-loop thread owns every connection's state and multiplexes
// readiness through net::Poller (epoll for sockets, the callback shim for
// the in-memory fabric); a small worker pool runs the requests.  Idle
// connections cost a few KB each and the thread count is fixed at start().
// The reactor knows nothing about protocols: each listener's CodecFactory
// makes a Codec per connection that turns bytes into Tasks, one per
// request, answered one at a time in arrival order.  Shared by every port:
// an idle deadline (the slow-loris defence), write backpressure, and
// pipeline-depth and connection caps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "net/poller.hpp"
#include "net/transport.hpp"

namespace ganglia::net {

/// One buffered span of reply bytes: either owned outright (headers, small
/// bodies) or shared with a cache (zero-copy writev of cached payloads).
struct OutChunk {
  std::string owned;
  std::shared_ptr<const std::string> shared;
  std::size_t offset = 0;  ///< bytes already written

  std::string_view bytes() const noexcept {
    return shared ? std::string_view(*shared) : std::string_view(owned);
  }
};

/// A worker's answer to one request.
struct Reply {
  std::vector<OutChunk> chunks;  ///< empty: nothing to send
  bool keep_open = false;        ///< false: close once `chunks` are written
};

/// The work for one complete request; runs on a worker thread.
using Task = std::function<Reply()>;

/// Per-connection protocol state, driven only by the loop thread.
class Codec {
 public:
  virtual ~Codec() = default;

  /// `bytes` arrived from the peer (empty once, right after accept).
  /// Append a Task to `out` for every request they complete.  Return false
  /// once no further request can follow on this connection: the reactor
  /// stops reading and closes the connection when the queued Tasks are
  /// answered.
  virtual bool feed(std::string_view bytes, std::deque<Task>& out) = 0;
};

/// Makes the codec for one accepted connection; nullptr refuses the peer
/// (the connection is closed unanswered).
using CodecFactory =
    std::function<std::unique_ptr<Codec>(const Stream& stream)>;

struct ReactorOptions {
  /// Concurrent-connection cap across every listener.
  std::size_t max_connections = 10000;
  std::size_t read_chunk = 16u << 10;
  /// Worker threads; 0 = auto (max(2, hw_concurrency/4), cap 8).
  std::size_t workers = 0;
  /// A connection with no read/write progress for this long is closed.
  TimeUs idle_timeout_us = 30 * kMicrosPerSecond;
  /// Per-connection buffered-reply cap (write backpressure).
  std::size_t max_outbox_bytes = 4u << 20;
  /// Written to connections over max_connections, which then linger
  /// (reads discarded) until the peer hangs up; empty closes them at once.
  std::string busy_reply;
};

class Reactor {
 public:
  Reactor() = default;
  ~Reactor() { stop(); }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind `address` on `transport`; connections accepted there get their
  /// codec from `factory`.  Call before start().  Returns the bound address.
  Result<std::string> listen(Transport& transport, const std::string& address,
                             CodecFactory factory);

  /// Serve every bound listener until stop().
  Status start(ReactorOptions options = {});

  /// Close the listeners and every live connection, then join all threads.
  /// Also releases listeners bound without a start().
  void stop();

  bool running() const noexcept { return running_.load(); }
  /// Bound address of the first listen() call ("" when none).
  std::string address() const;
  std::size_t active_connections() const noexcept { return active_.load(); }

  struct Stats {
    std::uint64_t connections = 0;       ///< accepted under the cap (lifetime)
    std::uint64_t rejected_over_cap = 0; ///< refused at the connection cap
    std::uint64_t timeouts = 0;          ///< idle/slow-loris deadline closes
    std::uint64_t backpressure = 0;      ///< write-backpressure engagements
  };
  Stats stats() const;

 private:
  struct Port {
    std::unique_ptr<Listener> listener;
    CodecFactory factory;
  };

  struct Connection {
    std::uint64_t id = 0;
    std::unique_ptr<Stream> stream;
    std::unique_ptr<Codec> codec;
    int fd = -1;  ///< native descriptor, or -1 for the in-mem shim
    std::deque<Task> pending;
    bool handler_inflight = false;
    std::deque<OutChunk> outbox;
    std::size_t outbox_bytes = 0;
    bool want_write = false;     ///< registered for EPOLLOUT
    bool read_paused = false;    ///< backpressure: outbox over cap
    bool draining_close = false; ///< close once the outbox flushes
    bool peer_eof = false;
    bool done_reading = false;   ///< codec expects no further request
    bool reject_drain = false;   ///< over the cap: busy_reply, then linger
    bool dead = false;           ///< torn down; awaiting map erase
    TimeUs deadline_us = 0;      ///< idle deadline (absolute)
    bool in_wheel = false;
  };

  struct Job {
    std::uint64_t conn_id = 0;
    Task task;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    Reply reply;
  };

  void event_loop();
  void worker_loop();
  void accept_ready(std::size_t port);
  void handle_readable(Connection& conn);
  void feed(Connection& conn, std::string_view bytes);
  void maybe_dispatch(Connection& conn);
  void flush_outbox(Connection& conn);
  void enqueue(Connection& conn, std::vector<OutChunk>& chunks);
  void apply_completions();
  void maybe_close_idle_paths(Connection& conn);
  void close_connection(Connection& conn);
  bool reads_should_pause(const Connection& conn) const;
  void touch(Connection& conn);
  void file_in_wheel(Connection& conn);
  void advance_wheel();
  static TimeUs now_us();

  std::atomic<bool> running_{false};
  std::atomic<std::size_t> active_{0};
  ReactorOptions options_;
  std::vector<Port> ports_;  ///< poller tag == index; conn ids follow
  std::unique_ptr<Poller> poller_;

  // Loop-owned state (no locking: only event_loop touches these).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_id_ = 0;
  std::size_t reject_open_ = 0;  ///< reject_drain conns in connections_
  std::vector<std::unique_ptr<Connection>> graveyard_;  ///< deferred erase
  std::vector<std::vector<std::uint64_t>> wheel_;
  TimeUs wheel_tick_us_ = 0;
  std::int64_t wheel_last_slot_ = 0;
  std::string read_scratch_;

  // Worker-pool plumbing.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool workers_stopping_ = false;
  std::mutex completions_mutex_;
  std::deque<Completion> completions_;

  // Counters (loop and workers both observe; readers via stats()).
  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_rejected_over_cap_{0};
  std::atomic<std::uint64_t> n_timeouts_{0};
  std::atomic<std::uint64_t> n_backpressure_{0};

  // Declared last: the threads use every member above.
  std::jthread loop_thread_;
  std::vector<std::jthread> workers_;
};

}  // namespace ganglia::net
