#include "net/inmem.hpp"

#include <chrono>
#include <cstring>

#include "common/strings.hpp"

namespace ganglia::net {

// ----------------------------------------------------------- pipe streams

namespace {
/// One direction of a duplex in-memory connection.
struct PipeBuf {
  std::mutex mutex;
  std::condition_variable cv;
  std::string data;
  bool closed = false;
  /// Readiness shim for event-driven consumers: fired (outside the lock)
  /// whenever bytes land or the pipe closes.  The callback owns whatever
  /// state it needs, so a stale invocation after unregistration is benign.
  std::function<void()> notify;
};

/// Copy the callback under the lock, invoke it after release — the
/// callback takes the poller's own mutex and must not nest under ours.
void notify_outside_lock(PipeBuf& buf, std::unique_lock<std::mutex>& lock) {
  std::function<void()> fn = buf.notify;
  lock.unlock();
  if (fn) fn();
}
}  // namespace

class InMemTransport::PipeStream final : public Stream {
 public:
  PipeStream(std::shared_ptr<PipeBuf> in, std::shared_ptr<PipeBuf> out,
             std::string peer, TimeUs timeout)
      : in_(std::move(in)), out_(std::move(out)), peer_(std::move(peer)),
        timeout_(timeout) {}

  ~PipeStream() override { close(); }

  Result<std::size_t> read(char* buf, std::size_t len) override {
    std::unique_lock lock(in_->mutex);
    const bool ok = in_->cv.wait_for(
        lock, std::chrono::microseconds(timeout_),
        [&] { return !in_->data.empty() || in_->closed; });
    if (!ok) return Err(Errc::timeout, "in-memory read timed out");
    if (in_->data.empty()) return std::size_t{0};  // closed => EOF
    const std::size_t n = std::min(len, in_->data.size());
    std::memcpy(buf, in_->data.data(), n);
    in_->data.erase(0, n);
    return n;
  }

  Status write_all(std::string_view data) override {
    std::unique_lock lock(out_->mutex);
    if (out_->closed) return Err(Errc::closed, "peer closed");
    out_->data.append(data);
    out_->cv.notify_all();
    notify_outside_lock(*out_, lock);
    return {};
  }

  void close() override {
    for (auto& buf : {in_, out_}) {
      std::unique_lock lock(buf->mutex);
      buf->closed = true;
      buf->cv.notify_all();
      notify_outside_lock(*buf, lock);
    }
  }

  std::string peer_address() const override { return peer_; }

  Result<std::size_t> read_some(char* buf, std::size_t len) override {
    std::lock_guard lock(in_->mutex);
    if (in_->data.empty()) {
      if (in_->closed) return std::size_t{0};  // EOF
      return Err(Errc::would_block, "no bytes available");
    }
    const std::size_t n = std::min(len, in_->data.size());
    std::memcpy(buf, in_->data.data(), n);
    in_->data.erase(0, n);
    return n;
  }

  void set_ready_notify(std::function<void()> fn) override {
    std::lock_guard lock(in_->mutex);
    in_->notify = std::move(fn);
  }

 private:
  std::shared_ptr<PipeBuf> in_;
  std::shared_ptr<PipeBuf> out_;
  std::string peer_;
  TimeUs timeout_;
};

// -------------------------------------------------------- service streams

/// Synchronous request/response stream: writes buffer the request, the
/// first read invokes the service and snapshots the response.
class InMemTransport::ServiceStream final : public Stream {
 public:
  ServiceStream(ServiceFn service, std::string address,
                InMemTransport* owner, std::size_t truncate_after)
      : service_(std::move(service)), address_(std::move(address)),
        owner_(owner), truncate_after_(truncate_after) {}

  Result<std::size_t> read(char* buf, std::size_t len) override {
    if (closed_) return Err(Errc::closed, "stream closed");
    if (!responded_) {
      responded_ = true;
      Result<std::string> r = service_(request_);
      if (!r.ok()) return r.error();
      response_ = std::move(*r);
      {
        std::lock_guard lock(owner_->mutex_);
        owner_->stats_[address_].bytes_served +=
            std::min(response_.size(), truncate_after_);
      }
    }
    if (offset_ >= truncate_after_) {
      return Err(Errc::closed, "peer closed connection mid-stream");
    }
    const std::size_t available =
        std::min(response_.size(), truncate_after_) - offset_;
    if (available == 0) {
      // Whole (possibly truncated-at-exact-end) response consumed.
      if (truncate_after_ < response_.size()) {
        return Err(Errc::closed, "peer closed connection mid-stream");
      }
      return std::size_t{0};  // EOF
    }
    const std::size_t n = std::min(len, available);
    std::memcpy(buf, response_.data() + offset_, n);
    offset_ += n;
    return n;
  }

  Status write_all(std::string_view data) override {
    if (closed_) return Err(Errc::closed, "stream closed");
    if (responded_) {
      return Err(Errc::unsupported, "write after response began");
    }
    request_.append(data);
    std::lock_guard lock(owner_->mutex_);
    owner_->stats_[address_].bytes_received += data.size();
    return {};
  }

  void close() override { closed_ = true; }

  std::string peer_address() const override { return address_; }

 private:
  ServiceFn service_;
  std::string address_;
  InMemTransport* owner_;
  std::size_t truncate_after_;
  std::string request_;
  std::string response_;
  std::size_t offset_ = 0;
  bool responded_ = false;
  bool closed_ = false;
};

// ---------------------------------------------------------- listener mode

struct InMemTransport::ListenerState {
  std::mutex mutex;
  std::deque<std::unique_ptr<Stream>> pending;
  bool closed = false;
  std::string address;
  std::function<void()> notify;  ///< readiness shim (see PipeBuf::notify)
};

class InMemTransport::InMemListener final : public Listener {
 public:
  explicit InMemListener(std::shared_ptr<ListenerState> state)
      : state_(std::move(state)) {}

  ~InMemListener() override { close(); }

  void close() override {
    std::function<void()> fn;
    {
      std::lock_guard lock(state_->mutex);
      state_->closed = true;
      fn = state_->notify;
    }
    if (fn) fn();
  }

  std::string address() const override { return state_->address; }

  Result<std::unique_ptr<Stream>> accept_nonblocking() override {
    std::lock_guard lock(state_->mutex);
    if (!state_->pending.empty()) {
      auto stream = std::move(state_->pending.front());
      state_->pending.pop_front();
      return stream;
    }
    if (state_->closed) return Err(Errc::closed, "listener closed");
    return Err(Errc::would_block, "no connection pending");
  }

  void set_ready_notify(std::function<void()> fn) override {
    std::lock_guard lock(state_->mutex);
    state_->notify = std::move(fn);
  }

 private:
  std::shared_ptr<ListenerState> state_;
};

// --------------------------------------------------------------- factory

Result<std::unique_ptr<Listener>> InMemTransport::listen(
    std::string_view address) {
  std::lock_guard lock(mutex_);
  std::string addr(address);
  if (ends_with(addr, ":0")) {
    addr = addr.substr(0, addr.size() - 1) + std::to_string(next_ephemeral_++);
  }
  auto [it, inserted] =
      listeners_.emplace(addr, std::make_shared<ListenerState>());
  if (!inserted && !it->second->closed) {
    return Err(Errc::io_error, "address already in use: " + addr);
  }
  if (!inserted) it->second = std::make_shared<ListenerState>();  // rebind
  it->second->address = addr;
  return std::unique_ptr<Listener>(std::make_unique<InMemListener>(it->second));
}

FailurePolicy InMemTransport::apply_failure(const std::string& address) {
  auto it = failures_.find(address);
  if (it == failures_.end()) return FailurePolicy{};
  const FailurePolicy policy = it->second;
  if (it->second.remaining > 0 && --it->second.remaining == 0) {
    failures_.erase(it);
  }
  return policy;
}

Result<std::unique_ptr<Stream>> InMemTransport::connect(
    std::string_view address, TimeUs timeout) {
  return connect_as({}, address, timeout);
}

Result<std::unique_ptr<Stream>> InMemTransport::connect_as(
    std::string_view local_address, std::string_view address, TimeUs timeout) {
  std::string addr(address);
  ServiceFn service;
  std::shared_ptr<ListenerState> listener;
  std::size_t truncate_after = std::string::npos;
  {
    std::lock_guard lock(mutex_);
    ++stats_[addr].connects;
    // Partition check first: a partitioned pair cannot even exchange the
    // SYN, so no per-address policy below applies.
    const auto group_of = [this](std::string_view a) {
      const auto it = groups_.find(std::string(a));
      return it == groups_.end() ? 0 : it->second;
    };
    if (group_of(local_address) != group_of(addr)) {
      ++stats_[addr].failed_connects;
      return Err(Errc::timeout, "connect to " + addr + " timed out (partition)");
    }
    if (loss_rate_ > 0.0 && loss_rng_.next_bool(loss_rate_)) {
      ++stats_[addr].failed_connects;
      return Err(Errc::timeout, "connect to " + addr + " timed out (loss)");
    }
    const FailurePolicy policy = apply_failure(addr);
    switch (policy.kind) {
      case FailurePolicy::Kind::none:
        break;
      case FailurePolicy::Kind::refuse:
        ++stats_[addr].failed_connects;
        return Err(Errc::refused, "connection refused: " + addr);
      case FailurePolicy::Kind::timeout:
        ++stats_[addr].failed_connects;
        return Err(Errc::timeout, "connect to " + addr + " timed out");
      case FailurePolicy::Kind::truncate:
        truncate_after = policy.truncate_after;
        break;
    }
    if (auto sit = services_.find(addr); sit != services_.end()) {
      service = sit->second;
    } else if (auto lit = listeners_.find(addr);
               lit != listeners_.end() && !lit->second->closed) {
      listener = lit->second;
    } else {
      ++stats_[addr].failed_connects;
      return Err(Errc::refused, "connection refused: " + addr);
    }
  }

  if (service) {
    return std::unique_ptr<Stream>(std::make_unique<ServiceStream>(
        std::move(service), std::move(addr), this, truncate_after));
  }

  auto client_to_server = std::make_shared<PipeBuf>();
  auto server_to_client = std::make_shared<PipeBuf>();
  auto server_side = std::make_unique<PipeStream>(
      client_to_server, server_to_client, "client@" + addr, timeout);
  auto client_side = std::make_unique<PipeStream>(
      server_to_client, client_to_server, addr, timeout);
  {
    std::function<void()> fn;
    {
      std::lock_guard lock(listener->mutex);
      if (listener->closed) {
        return Err(Errc::refused, "connection refused: " + addr);
      }
      listener->pending.push_back(std::move(server_side));
      fn = listener->notify;
    }
    if (fn) fn();
  }
  return std::unique_ptr<Stream>(std::move(client_side));
}

// ----------------------------------------------------------- admin + stats

void InMemTransport::register_service(std::string address, ServiceFn service) {
  std::lock_guard lock(mutex_);
  services_[std::move(address)] = std::move(service);
}

void InMemTransport::unregister_service(const std::string& address) {
  std::lock_guard lock(mutex_);
  services_.erase(address);
}

bool InMemTransport::has_service(const std::string& address) const {
  std::lock_guard lock(mutex_);
  return services_.count(address) != 0;
}

void InMemTransport::set_failure(const std::string& address,
                                 FailurePolicy policy) {
  std::lock_guard lock(mutex_);
  if (policy.kind == FailurePolicy::Kind::none || policy.remaining == 0) {
    failures_.erase(address);
  } else {
    failures_[address] = policy;
  }
}

void InMemTransport::clear_failure(const std::string& address) {
  std::lock_guard lock(mutex_);
  failures_.erase(address);
}

void InMemTransport::set_group(const std::string& address, int group) {
  std::lock_guard lock(mutex_);
  if (group == 0) {
    groups_.erase(address);
  } else {
    groups_[address] = group;
  }
}

int InMemTransport::group(const std::string& address) const {
  std::lock_guard lock(mutex_);
  const auto it = groups_.find(address);
  return it == groups_.end() ? 0 : it->second;
}

void InMemTransport::set_loss(double rate, std::uint64_t seed) {
  std::lock_guard lock(mutex_);
  loss_rate_ = rate;
  loss_rng_ = Rng(seed);
}

AddressStats InMemTransport::stats(const std::string& address) const {
  std::lock_guard lock(mutex_);
  auto it = stats_.find(address);
  return it == stats_.end() ? AddressStats{} : it->second;
}

void InMemTransport::reset_stats() {
  std::lock_guard lock(mutex_);
  stats_.clear();
}

}  // namespace ganglia::net
