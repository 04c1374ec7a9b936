#include "net/poller.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace ganglia::net {

namespace {
/// epoll user-data value reserved for the wake eventfd.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}
}  // namespace

/// Shim state shared with every notifier() callback.  It outlives the
/// Poller itself: a late callback still takes the mutex, appends its tag,
/// and writes an eventfd nobody will ever drain — all harmless.
struct Poller::Shared {
  std::mutex mutex;
  std::vector<std::uint64_t> ready;  ///< tags notified since last wait()
  int event_fd = -1;

  ~Shared() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void post(std::uint64_t tag) {
    bool first;
    {
      std::lock_guard lock(mutex);
      first = ready.empty();
      ready.push_back(tag);
    }
    // One eventfd write per wait()-cycle is enough to wake the loop; the
    // non-blocking fd also makes counter saturation a non-event.
    if (first) kick();
  }

  void kick() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof one);
  }
};

Poller::Poller(int epoll_fd, std::shared_ptr<Shared> shared)
    : epoll_fd_(epoll_fd), shared_(std::move(shared)) {}

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Result<std::unique_ptr<Poller>> Poller::create() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return Err(Errc::io_error, errno_string("epoll_create1"));
  const int event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd < 0) {
    ::close(epoll_fd);
    return Err(Errc::io_error, errno_string("eventfd"));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: drained on every delivery
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, event_fd, &ev) != 0) {
    const Error err = Err(Errc::io_error, errno_string("epoll_ctl wake"));
    ::close(event_fd);
    ::close(epoll_fd);
    return err;
  }
  auto shared = std::make_shared<Shared>();
  shared->event_fd = event_fd;
  return std::unique_ptr<Poller>(new Poller(epoll_fd, std::move(shared)));
}

Status Poller::add_fd(int fd, std::uint64_t tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Err(Errc::io_error, errno_string("epoll_ctl add"));
  }
  return {};
}

Status Poller::mod_fd(int fd, std::uint64_t tag, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
              (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Err(Errc::io_error, errno_string("epoll_ctl mod"));
  }
  return {};
}

void Poller::del_fd(int fd) {
  epoll_event ev{};  // non-null for pre-2.6.9 kernels' sake
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

std::function<void()> Poller::notifier(std::uint64_t tag) const {
  return [shared = shared_, tag] { shared->post(tag); };
}

void Poller::wake() { shared_->kick(); }

Result<std::size_t> Poller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  epoll_event events[256];
  const int rc = ::epoll_wait(epoll_fd_, events,
                              static_cast<int>(std::size(events)), timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return std::size_t{0};
    return Err(Errc::io_error, errno_string("epoll_wait"));
  }

  std::size_t appended = 0;
  for (int i = 0; i < rc; ++i) {
    const epoll_event& ev = events[i];
    if (ev.data.u64 == kWakeTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] ssize_t n =
          ::read(shared_->event_fd, &drained, sizeof drained);
      continue;
    }
    PollEvent event;
    event.tag = ev.data.u64;
    event.readable = (ev.events & (EPOLLIN | EPOLLPRI)) != 0;
    event.writable = (ev.events & EPOLLOUT) != 0;
    event.hangup = (ev.events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out.push_back(event);
    ++appended;
  }

  // Merge shim notifications.  Deduplicate: a burst of pipe writes posts
  // the same tag many times but is one "readable" edge to the reactor.
  std::vector<std::uint64_t> ready;
  {
    std::lock_guard lock(shared_->mutex);
    ready.swap(shared_->ready);
  }
  std::sort(ready.begin(), ready.end());
  ready.erase(std::unique(ready.begin(), ready.end()), ready.end());
  for (const std::uint64_t tag : ready) {
    PollEvent event;
    event.tag = tag;
    event.readable = true;
    out.push_back(event);
    ++appended;
  }
  return appended;
}

}  // namespace ganglia::net
