// Readiness multiplexer for event-driven servers.
//
// One Poller watches two kinds of sources on behalf of a single event-loop
// thread:
//
//  * OS descriptors (TCP sockets, the listener) registered edge-triggered
//    with epoll — the production C10K path;
//  * fd-less in-memory streams, whose readiness arrives through the
//    notifier() callback: any thread may fire it, the tag lands in a
//    mutex-guarded set, and an eventfd write wakes the epoll_wait.  This is
//    the shim that lets the deterministic in-mem test fabric drive the same
//    reactor code as real sockets.
//
// Callbacks returned by notifier() share ownership of the internal state,
// so a stale callback fired after the Poller is destroyed (a client thread
// writing into a pipe the server already abandoned) is harmless.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.hpp"

namespace ganglia::net {

/// One readiness event.  `hangup` folds EPOLLHUP/EPOLLERR/EPOLLRDHUP into
/// "read until you see the EOF/error" — the reactor treats it as readable.
struct PollEvent {
  std::uint64_t tag = 0;
  bool readable = false;
  bool writable = false;
  bool hangup = false;
};

class Poller {
 public:
  static Result<std::unique_ptr<Poller>> create();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // -- descriptor side (edge-triggered) ------------------------------------
  /// Register `fd` for read (+ write when `want_write`) readiness.
  Status add_fd(int fd, std::uint64_t tag, bool want_write);
  /// Re-arm `fd`, toggling write interest.
  Status mod_fd(int fd, std::uint64_t tag, bool want_write);
  void del_fd(int fd);

  // -- shim side (fd-less streams) -----------------------------------------
  /// A thread-safe callback marking `tag` readable and waking wait().
  /// Suitable for Stream::set_ready_notify / Listener::set_ready_notify.
  std::function<void()> notifier(std::uint64_t tag) const;

  /// Wake wait() without delivering an event (cross-thread nudge, used for
  /// handler-completion queues and stop()).
  void wake();

  /// Block up to `timeout_ms` (-1 = forever) and append ready events to
  /// `out`.  Returns the number appended; 0 means timeout or bare wake().
  Result<std::size_t> wait(std::vector<PollEvent>& out, int timeout_ms);

 private:
  struct Shared;
  explicit Poller(int epoll_fd, std::shared_ptr<Shared> shared);

  int epoll_fd_ = -1;
  std::shared_ptr<Shared> shared_;
};

}  // namespace ganglia::net
