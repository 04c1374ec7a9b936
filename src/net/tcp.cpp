#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/strings.hpp"

namespace ganglia::net {

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

std::string errno_string(std::string_view what) {
  return std::string(what) + ": " + std::strerror(errno);
}

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

Result<HostPort> split_address(std::string_view address) {
  const auto colon = address.rfind(':');
  if (colon == std::string_view::npos) {
    return Err(Errc::invalid_argument,
               "address must be host:port, got '" + std::string(address) + "'");
  }
  auto port = parse_u64(address.substr(colon + 1));
  if (!port || *port > 65535) {
    return Err(Errc::invalid_argument,
               "bad port in '" + std::string(address) + "'");
  }
  HostPort hp;
  hp.host = std::string(address.substr(0, colon));
  hp.port = static_cast<std::uint16_t>(*port);
  return hp;
}

Result<sockaddr_in> resolve(const HostPort& hp) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(hp.port);
  if (hp.host.empty() || hp.host == "*") {
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
    return sa;
  }
  if (inet_pton(AF_INET, hp.host.c_str(), &sa.sin_addr) == 1) return sa;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(hp.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Err(Errc::io_error,
               "cannot resolve '" + hp.host + "': " + gai_strerror(rc));
  }
  sa.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return sa;
}

std::string address_of(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof buf);
  return std::string(buf) + ":" + std::to_string(ntohs(sa.sin_port));
}

void set_io_timeout(int fd, TimeUs timeout) {
  timeval tv{};
  tv.tv_sec = timeout / kMicrosPerSecond;
  tv.tv_usec = static_cast<suseconds_t>(timeout % kMicrosPerSecond);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

class TcpStream final : public Stream {
 public:
  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    if (getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&peer), &len) == 0) {
      peer_ = address_of(peer);
    }
  }

  Result<std::size_t> read(char* buf, std::size_t len) override {
    for (;;) {
      const ssize_t n = ::recv(fd_.get(), buf, len, 0);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Same errno, two meanings: a blocking socket hit SO_RCVTIMEO, a
        // non-blocking one simply has nothing buffered yet.
        if (nonblocking_) return Err(Errc::would_block, "no bytes available");
        return Err(Errc::timeout, "read timed out");
      }
      if (errno == ECONNRESET) return Err(Errc::closed, "connection reset");
      return Err(Errc::io_error, errno_string("recv"));
    }
  }

  int native_fd() const noexcept override { return fd_.get(); }

  void set_nonblocking(bool enabled) override {
    const int flags = fcntl(fd_.get(), F_GETFL);
    if (flags < 0) return;
    fcntl(fd_.get(), F_SETFL,
          enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
    nonblocking_ = enabled;
  }

  Result<std::size_t> write_some(const ConstBuf* bufs,
                                 std::size_t count) override {
    iovec iov[16];
    const std::size_t niov = std::min(count, std::size_t{16});
    for (std::size_t i = 0; i < niov; ++i) {
      // sendmsg never writes through msg_iov; the const_cast is the POSIX
      // interface's problem, not ours.
      iov[i].iov_base = const_cast<char*>(bufs[i].data);
      iov[i].iov_len = bufs[i].size;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    for (;;) {
      const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
      if (errno == EPIPE || errno == ECONNRESET) {
        return Err(Errc::closed, "peer closed during write");
      }
      return Err(Errc::io_error, errno_string("sendmsg"));
    }
  }

  Status write_all(std::string_view data) override {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_.get(), data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return Err(Errc::timeout, "write timed out");
        }
        if (errno == EPIPE || errno == ECONNRESET) {
          return Err(Errc::closed, "peer closed during write");
        }
        return Err(Errc::io_error, errno_string("send"));
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return {};
  }

  void close() override {
    // Shut down both directions but keep the descriptor alive until the
    // stream is destroyed: close() may be called from another thread to
    // wake a reader blocked in recv, and releasing the fd concurrently
    // would race with that blocked read — worst case the kernel reuses the
    // number for a fresh accept.
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  }

  std::string peer_address() const override { return peer_; }

 private:
  Fd fd_;
  std::string peer_;
  bool nonblocking_ = false;
};

/// Accepted gateway sockets answer with many small cached responses per
/// connection; Nagle would delay each one behind the previous ACK.
void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

class TcpListener final : public Listener {
 public:
  TcpListener(Fd fd, std::string address)
      : fd_(std::move(fd)), address_(std::move(address)) {}

  int native_fd() const noexcept override { return fd_.get(); }

  Result<std::unique_ptr<Stream>> accept_nonblocking() override {
    for (;;) {
      if (closed_.load()) return Err(Errc::closed, "listener closed");
      // Accepted sockets start non-blocking: the reactor owns their
      // timeouts, so no SO_RCVTIMEO here.
      Fd client(::accept4(fd_.get(), nullptr, nullptr,
                          SOCK_NONBLOCK | SOCK_CLOEXEC));
      if (!client.valid()) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return Err(Errc::would_block, "no connection pending");
        }
        return Err(Errc::io_error, errno_string("accept4"));
      }
      set_nodelay(client.get());
      auto stream = std::make_unique<TcpStream>(std::move(client));
      stream->set_nonblocking(true);
      return std::unique_ptr<Stream>(std::move(stream));
    }
  }

  void close() override { closed_.store(true); }

  std::string address() const override { return address_; }

 private:
  Fd fd_;
  std::string address_;
  std::atomic<bool> closed_{false};
};

}  // namespace

Result<std::unique_ptr<Listener>> TcpTransport::listen(std::string_view address) {
  auto hp = split_address(address);
  if (!hp.ok()) return hp.error();
  auto sa = resolve(*hp);
  if (!sa.ok()) return sa.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return Err(Errc::io_error, errno_string("socket"));
  const int one = 1;
  setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&*sa), sizeof *sa) != 0) {
    return Err(Errc::io_error, errno_string("bind " + std::string(address)));
  }
  // SOMAXCONN, not a token backlog: the reactor accepts in bursts, and a
  // C10K reconnect storm would overflow a 64-entry queue into dropped SYNs.
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    return Err(Errc::io_error, errno_string("listen"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len);
  return std::unique_ptr<Listener>(
      std::make_unique<TcpListener>(std::move(fd), address_of(bound)));
}

Result<std::unique_ptr<Stream>> TcpTransport::connect(std::string_view address,
                                                      TimeUs timeout) {
  auto hp = split_address(address);
  if (!hp.ok()) return hp.error();
  auto sa = resolve(*hp);
  if (!sa.ok()) return sa.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return Err(Errc::io_error, errno_string("socket"));

  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&*sa), sizeof *sa);
  if (rc != 0 && errno != EINPROGRESS) {
    if (errno == ECONNREFUSED) {
      return Err(Errc::refused, "connection refused: " + std::string(address));
    }
    return Err(Errc::io_error, errno_string("connect " + std::string(address)));
  }
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int timeout_ms = static_cast<int>(timeout / 1000);
    rc = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : 1);
    if (rc == 0) {
      return Err(Errc::timeout, "connect to " + std::string(address) + " timed out");
    }
    if (rc < 0) return Err(Errc::io_error, errno_string("poll"));
    int err = 0;
    socklen_t err_len = sizeof err;
    getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      errno = err;
      if (err == ECONNREFUSED) {
        return Err(Errc::refused, "connection refused: " + std::string(address));
      }
      return Err(Errc::io_error, errno_string("connect " + std::string(address)));
    }
  }
  // Back to blocking with per-op timeouts.
  const int flags = fcntl(fd.get(), F_GETFL);
  fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK);
  set_io_timeout(fd.get(), timeout);
  const int one = 1;
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<Stream>(std::make_unique<TcpStream>(std::move(fd)));
}

}  // namespace ganglia::net
