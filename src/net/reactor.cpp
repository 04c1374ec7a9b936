#include "net/reactor.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace ganglia::net {

namespace {

/// Queued-but-undispatched request depth at which the reactor stops
/// reading from a connection: a client streaming requests faster than the
/// handler answers them buffers in its own socket, not in our heap.
constexpr std::size_t kMaxPipelineDepth = 256;

/// Codec of an over-cap connection: after the busy reply it reads and
/// drops whatever the peer sends until the peer hangs up.  (Closing at
/// once would race the peer's request write against our close; lingering
/// lets it read the reply.)
class Discard final : public Codec {
 public:
  bool feed(std::string_view, std::deque<Task>&) override { return true; }
};

}  // namespace

Result<std::string> Reactor::listen(Transport& transport,
                                    const std::string& address,
                                    CodecFactory factory) {
  if (running_.load()) {
    return Err(Errc::invalid_argument, "listen after start");
  }
  auto listener = transport.listen(address);
  if (!listener.ok()) return listener.error();
  std::string bound = (*listener)->address();
  ports_.push_back({std::move(*listener), std::move(factory)});
  return bound;
}

std::string Reactor::address() const {
  return ports_.empty() ? std::string() : ports_.front().listener->address();
}

Status Reactor::start(ReactorOptions options) {
  if (running_.exchange(true)) {
    return Err(Errc::invalid_argument, "server already running");
  }
  auto poller = Poller::create();
  if (!poller.ok()) {
    running_ = false;
    return poller.error();
  }
  poller_ = std::move(*poller);
  options_ = std::move(options);

  connections_.clear();
  graveyard_.clear();
  next_id_ = ports_.size();
  reject_open_ = 0;
  wheel_tick_us_ = std::max<TimeUs>(options_.idle_timeout_us / 64, 1000);
  wheel_.assign(128, {});
  wheel_last_slot_ = now_us() / wheel_tick_us_;
  read_scratch_.assign(std::max<std::size_t>(options_.read_chunk, 1), '\0');
  jobs_.clear();
  completions_.clear();
  workers_stopping_ = false;

  for (std::size_t tag = 0; tag < ports_.size(); ++tag) {
    Listener& listener = *ports_[tag].listener;
    if (listener.native_fd() < 0) {
      listener.set_ready_notify(poller_->notifier(tag));
      continue;
    }
    const Status added =
        poller_->add_fd(listener.native_fd(), tag, /*want_write=*/false);
    if (!added.ok()) {
      running_ = false;
      stop();
      return added;
    }
  }

  std::size_t worker_count = options_.workers;
  if (worker_count == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    worker_count = std::min<std::size_t>(8, std::max<std::size_t>(2, hw / 4));
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back(&Reactor::worker_loop, this);
  }
  loop_thread_ = std::jthread(&Reactor::event_loop, this);
  return {};
}

void Reactor::stop() {
  if (running_.exchange(false)) {
    for (Port& port : ports_) port.listener->close();
    poller_->wake();
    loop_thread_ = std::jthread();  // join: loop tears down all connections
    {
      std::lock_guard lock(jobs_mutex_);
      workers_stopping_ = true;
    }
    jobs_cv_.notify_all();
    workers_.clear();  // join
    jobs_.clear();
    completions_.clear();
  }
  ports_.clear();
  poller_.reset();
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.connections = n_connections_.load();
  s.rejected_over_cap = n_rejected_over_cap_.load();
  s.timeouts = n_timeouts_.load();
  s.backpressure = n_backpressure_.load();
  return s;
}

TimeUs Reactor::now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------------- event loop

void Reactor::event_loop() {
  std::vector<PollEvent> events;
  // Connections or bytes may have arrived between listen() and the
  // notifier registration; prime every listener once before waiting.
  for (std::size_t port = 0; port < ports_.size(); ++port) accept_ready(port);

  while (running_.load()) {
    graveyard_.clear();
    events.clear();
    const int timeout_ms =
        connections_.empty()
            ? -1
            : static_cast<int>(
                  std::clamp<TimeUs>(wheel_tick_us_ / 1000, 1, 1000));
    auto n = poller_->wait(events, timeout_ms);
    if (!n.ok()) {
      GLOG(warn, "reactor") << "poller failed: " << n.error().to_string();
      break;
    }
    if (!running_.load()) break;

    for (const PollEvent& ev : events) {
      if (ev.tag < ports_.size()) {
        accept_ready(static_cast<std::size_t>(ev.tag));
        continue;
      }
      auto it = connections_.find(ev.tag);
      if (it == connections_.end()) continue;  // already closed this cycle
      Connection& conn = *it->second;
      if (ev.writable && !conn.dead) {
        flush_outbox(conn);
        maybe_close_idle_paths(conn);  // the last reply may have just left
      }
      if ((ev.readable || ev.hangup) && !conn.dead) handle_readable(conn);
    }
    apply_completions();
    advance_wheel();
  }

  // Teardown: close every stream so peers see EOF, then drop the state.
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) {
      poller_->del_fd(conn->fd);
    } else {
      conn->stream->set_ready_notify(nullptr);
    }
    conn->stream->close();
  }
  connections_.clear();
  graveyard_.clear();
  reject_open_ = 0;
  active_.store(0);
}

void Reactor::accept_ready(std::size_t port) {
  while (running_.load()) {
    auto stream = ports_[port].listener->accept_nonblocking();
    if (!stream.ok()) return;  // would_block, or listener closed
    const bool over_cap =
        connections_.size() - reject_open_ >= options_.max_connections;
    std::unique_ptr<Codec> codec;
    if (!over_cap) {
      codec = ports_[port].factory(**stream);
    } else {
      n_rejected_over_cap_.fetch_add(1, std::memory_order_relaxed);
      if (!options_.busy_reply.empty()) codec = std::make_unique<Discard>();
    }
    if (codec == nullptr) {  // refused peer, or over the cap with no reply
      (*stream)->close();
      continue;
    }

    auto conn = std::make_unique<Connection>();
    conn->id = next_id_++;
    conn->stream = std::move(*stream);
    conn->codec = std::move(codec);
    conn->fd = conn->stream->native_fd();
    conn->reject_drain = over_cap;
    if (conn->fd >= 0) {
      const Status added =
          poller_->add_fd(conn->fd, conn->id, /*want_write=*/false);
      if (!added.ok()) {
        conn->stream->close();
        continue;
      }
    } else {
      conn->stream->set_ready_notify(poller_->notifier(conn->id));
    }
    Connection& ref = *conn;
    connections_.emplace(ref.id, std::move(conn));
    touch(ref);

    if (over_cap) {
      ++reject_open_;
      std::vector<OutChunk> busy(1);
      busy[0].owned = options_.busy_reply;
      enqueue(ref, busy);
    } else {
      n_connections_.fetch_add(1, std::memory_order_relaxed);
    }
    active_.store(connections_.size() - reject_open_);
    // Some protocols answer on accept (the dump port's request is empty).
    feed(ref, {});
    flush_outbox(ref);
    // Bytes may have raced ahead of registration; with edge triggering
    // there will be no edge for them, so always take one read pass now.
    if (!ref.dead) handle_readable(ref);
  }
}

void Reactor::handle_readable(Connection& conn) {
  if (conn.dead) return;
  if (!conn.done_reading && !conn.read_paused) {
    for (;;) {
      auto n = conn.stream->read_some(read_scratch_.data(),
                                      read_scratch_.size());
      if (!n.ok()) {
        if (n.code() == Errc::would_block) break;
        close_connection(conn);  // reset / hard error
        return;
      }
      if (*n == 0) {
        conn.peer_eof = true;
        break;
      }
      // A rejected peer cannot keep itself alive past the idle deadline.
      if (!conn.reject_drain) touch(conn);
      feed(conn, std::string_view(read_scratch_.data(), *n));
      if (conn.done_reading) break;
      if (reads_should_pause(conn)) {
        conn.read_paused = true;
        break;
      }
    }
  }
  maybe_dispatch(conn);
  if (conn.dead) return;
  maybe_close_idle_paths(conn);
}

void Reactor::feed(Connection& conn, std::string_view bytes) {
  if (!conn.codec->feed(bytes, conn.pending)) conn.done_reading = true;
}

bool Reactor::reads_should_pause(const Connection& conn) const {
  return conn.outbox_bytes >= options_.max_outbox_bytes ||
         conn.pending.size() >= kMaxPipelineDepth;
}

void Reactor::maybe_dispatch(Connection& conn) {
  if (conn.dead || conn.handler_inflight || conn.draining_close) return;
  if (conn.pending.empty()) return;
  if (conn.outbox_bytes >= options_.max_outbox_bytes) return;

  conn.handler_inflight = true;
  Job job;
  job.conn_id = conn.id;
  job.task = std::move(conn.pending.front());
  conn.pending.pop_front();
  {
    std::lock_guard lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void Reactor::enqueue(Connection& conn, std::vector<OutChunk>& chunks) {
  for (OutChunk& chunk : chunks) {
    conn.outbox_bytes += chunk.bytes().size();
    conn.outbox.push_back(std::move(chunk));
  }
}

void Reactor::flush_outbox(Connection& conn) {
  if (conn.dead) return;
  while (!conn.outbox.empty()) {
    ConstBuf bufs[16];
    std::size_t count = 0;
    for (const OutChunk& chunk : conn.outbox) {
      if (count == std::size(bufs)) break;
      const std::string_view bytes = chunk.bytes();
      bufs[count].data = bytes.data() + chunk.offset;
      bufs[count].size = bytes.size() - chunk.offset;
      ++count;
    }
    auto written = conn.stream->write_some(bufs, count);
    if (!written.ok()) {
      close_connection(conn);  // peer reset / gone: drop the rest
      return;
    }
    if (*written == 0) {
      // Transport full: re-arm for writability and let epoll tell us when
      // the peer drains its receive window.
      if (conn.fd >= 0 && !conn.want_write) {
        conn.want_write = true;
        n_backpressure_.fetch_add(1, std::memory_order_relaxed);
        (void)poller_->mod_fd(conn.fd, conn.id, /*want_write=*/true);
      }
      break;
    }
    touch(conn);  // write progress counts against the idle deadline
    std::size_t remaining = *written;
    conn.outbox_bytes -= remaining;
    while (remaining > 0) {
      OutChunk& front = conn.outbox.front();
      const std::size_t left = front.bytes().size() - front.offset;
      if (remaining < left) {
        front.offset += remaining;
        remaining = 0;
      } else {
        remaining -= left;
        conn.outbox.pop_front();
      }
    }
  }

  if (conn.outbox.empty()) {
    if (conn.want_write) {
      conn.want_write = false;
      (void)poller_->mod_fd(conn.fd, conn.id, /*want_write=*/false);
    }
    if (conn.draining_close) {
      close_connection(conn);
      return;
    }
  }
  if (conn.read_paused && !reads_should_pause(conn)) {
    conn.read_paused = false;
    handle_readable(conn);  // the read edge was consumed while paused
  }
}

void Reactor::apply_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& comp : batch) {
    auto it = connections_.find(comp.conn_id);
    if (it == connections_.end()) continue;  // closed while handler ran
    Connection& conn = *it->second;
    if (conn.dead) continue;
    conn.handler_inflight = false;
    enqueue(conn, comp.reply.chunks);
    if (!comp.reply.keep_open) {
      conn.draining_close = true;
      conn.pending.clear();
    }
    flush_outbox(conn);
    if (conn.dead) continue;
    if (conn.outbox_bytes >= options_.max_outbox_bytes) {
      conn.read_paused = true;
    }
    maybe_dispatch(conn);
    if (conn.dead) continue;
    if (conn.read_paused && !reads_should_pause(conn)) {
      conn.read_paused = false;
      handle_readable(conn);
    }
    if (conn.dead) continue;
    maybe_close_idle_paths(conn);
  }
}

void Reactor::maybe_close_idle_paths(Connection& conn) {
  // Once the peer half-closed, or the codec expects nothing more, the
  // connection lives exactly as long as there is still work in flight for
  // it: requests queued before that point are all answered first.
  if (conn.dead || !(conn.peer_eof || conn.done_reading)) return;
  if (conn.pending.empty() && !conn.handler_inflight && conn.outbox.empty()) {
    close_connection(conn);
  }
}

void Reactor::close_connection(Connection& conn) {
  if (conn.dead) return;
  conn.dead = true;
  if (conn.fd >= 0) {
    poller_->del_fd(conn.fd);
  } else {
    conn.stream->set_ready_notify(nullptr);
  }
  conn.stream->close();
  if (conn.reject_drain) --reject_open_;
  auto it = connections_.find(conn.id);
  if (it != connections_.end()) {
    // Keep the object alive until the end of this loop iteration: callers
    // up the stack still hold a reference and re-check conn.dead.
    graveyard_.push_back(std::move(it->second));
    connections_.erase(it);
  }
  active_.store(connections_.size() - reject_open_);
}

// ------------------------------------------------------------ idle deadlines

void Reactor::touch(Connection& conn) {
  conn.deadline_us = now_us() + options_.idle_timeout_us;
  if (!conn.in_wheel) file_in_wheel(conn);
}

void Reactor::file_in_wheel(Connection& conn) {
  const std::size_t slot = static_cast<std::size_t>(
      (conn.deadline_us / wheel_tick_us_ + 1) %
      static_cast<TimeUs>(wheel_.size()));
  wheel_[slot].push_back(conn.id);
  conn.in_wheel = true;
}

void Reactor::advance_wheel() {
  const TimeUs now = now_us();
  const std::int64_t current = now / wheel_tick_us_;
  if (current <= wheel_last_slot_) return;
  std::int64_t steps = current - wheel_last_slot_;
  const auto size = static_cast<std::int64_t>(wheel_.size());
  if (steps > size) steps = size;  // long stall: one full revolution
  for (std::int64_t i = 1; i <= steps; ++i) {
    auto& bucket =
        wheel_[static_cast<std::size_t>((wheel_last_slot_ + i) % size)];
    std::vector<std::uint64_t> ids;
    ids.swap(bucket);
    for (const std::uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed since filing
      Connection& conn = *it->second;
      conn.in_wheel = false;
      if (conn.deadline_us <= now) {
        // No read/write progress for a full idle window: reap.  This is
        // the slow-loris defence — a dribbled request never finishes.
        n_timeouts_.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
      } else {
        file_in_wheel(conn);  // activity moved the deadline; re-file lazily
      }
    }
  }
  wheel_last_slot_ = current;
}

// -------------------------------------------------------------- worker pool

void Reactor::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(jobs_mutex_);
      jobs_cv_.wait(lock,
                    [this] { return workers_stopping_ || !jobs_.empty(); });
      if (workers_stopping_) return;  // queued jobs die with the reactor
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    Completion comp;
    comp.conn_id = job.conn_id;
    comp.reply = job.task();

    bool was_empty = false;
    {
      std::lock_guard lock(completions_mutex_);
      was_empty = completions_.empty();
      completions_.push_back(std::move(comp));
    }
    // Coalesced wake: one eventfd kick per loop cycle is enough.
    if (was_empty) poller_->wake();
  }
}

}  // namespace ganglia::net
