// Unit tests for src/net: protocol helpers, the in-memory transport
// (services, failure injection, pipes), and the real TCP transport on
// loopback.

#include <gtest/gtest.h>

#include <thread>

#include "net/inmem.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

namespace ganglia::net {
namespace {

constexpr TimeUs kTimeout = 2 * kMicrosPerSecond;

/// Server side of the listener tests: listeners never block, so poll the
/// non-blocking accept (for up to ~2 s), then read the stream in blocking
/// mode like a client would.
Result<std::unique_ptr<Stream>> accept_one(Listener& listener) {
  for (int i = 0; i < 2000; ++i) {
    auto stream = listener.accept_nonblocking();
    if (stream.ok()) (*stream)->set_nonblocking(false);
    if (stream.code() != Errc::would_block) return stream;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Err(Errc::timeout, "no connection arrived");
}

// -------------------------------------------------------- service streams

TEST(InMem, ServiceAnswersDumpStyleConnect) {
  InMemTransport transport;
  transport.register_service("gmond:8649", [](std::string_view request) {
    EXPECT_TRUE(request.empty());
    return Result<std::string>("<XML/>");
  });

  auto stream = transport.connect("gmond:8649", kTimeout);
  ASSERT_TRUE(stream.ok());
  auto body = read_to_eof(**stream);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "<XML/>");
}

TEST(InMem, ServiceSeesRequestWrittenBeforeFirstRead) {
  InMemTransport transport;
  transport.register_service("gmeta:8652", [](std::string_view request) {
    return Result<std::string>("got:" + std::string(request));
  });

  auto stream = transport.connect("gmeta:8652", kTimeout);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->write_all("/meteor\n").ok());
  auto body = read_to_eof(**stream);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "got:/meteor\n");
}

TEST(InMem, WriteAfterResponseBeganIsRejected) {
  InMemTransport transport;
  transport.register_service("s:1",
                             [](std::string_view) { return Result<std::string>("x"); });
  auto stream = transport.connect("s:1", kTimeout);
  char c;
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->read(&c, 1).ok());
  EXPECT_FALSE((*stream)->write_all("late").ok());
}

TEST(InMem, ConnectToUnknownAddressRefused) {
  InMemTransport transport;
  auto stream = transport.connect("nobody:1", kTimeout);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.code(), Errc::refused);
}

TEST(InMem, ServiceErrorsPropagateToReader) {
  InMemTransport transport;
  transport.register_service("sick:1", [](std::string_view) -> Result<std::string> {
    return Err(Errc::internal, "daemon wedged");
  });
  auto stream = transport.connect("sick:1", kTimeout);
  ASSERT_TRUE(stream.ok());
  auto body = read_to_eof(**stream);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.code(), Errc::internal);
}

// ------------------------------------------------------ failure injection

TEST(InMem, RefusePolicySimulatesStopFailure) {
  InMemTransport transport;
  transport.register_service("s:1",
                             [](std::string_view) { return Result<std::string>("ok"); });
  FailurePolicy down;
  down.kind = FailurePolicy::Kind::refuse;
  transport.set_failure("s:1", down);
  EXPECT_EQ(transport.connect("s:1", kTimeout).code(), Errc::refused);
  transport.clear_failure("s:1");
  EXPECT_TRUE(transport.connect("s:1", kTimeout).ok());
}

TEST(InMem, TimeoutPolicySimulatesPartition) {
  InMemTransport transport;
  transport.register_service("s:1",
                             [](std::string_view) { return Result<std::string>("ok"); });
  FailurePolicy p;
  p.kind = FailurePolicy::Kind::timeout;
  transport.set_failure("s:1", p);
  EXPECT_EQ(transport.connect("s:1", kTimeout).code(), Errc::timeout);
}

TEST(InMem, TruncatePolicySimulatesIntermittentFailure) {
  InMemTransport transport;
  transport.register_service("s:1", [](std::string_view) {
    return Result<std::string>("0123456789");
  });
  FailurePolicy p;
  p.kind = FailurePolicy::Kind::truncate;
  p.truncate_after = 4;
  transport.set_failure("s:1", p);

  auto stream = transport.connect("s:1", kTimeout);
  ASSERT_TRUE(stream.ok());
  auto body = read_to_eof(**stream);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.code(), Errc::closed);
}

TEST(InMem, CountedPolicyAutoClears) {
  InMemTransport transport;
  transport.register_service("s:1",
                             [](std::string_view) { return Result<std::string>("ok"); });
  FailurePolicy p;
  p.kind = FailurePolicy::Kind::refuse;
  p.remaining = 2;
  transport.set_failure("s:1", p);
  EXPECT_FALSE(transport.connect("s:1", kTimeout).ok());
  EXPECT_FALSE(transport.connect("s:1", kTimeout).ok());
  EXPECT_TRUE(transport.connect("s:1", kTimeout).ok());
}

TEST(InMem, StatsCountConnectsAndBytes) {
  InMemTransport transport;
  transport.register_service("s:1", [](std::string_view) {
    return Result<std::string>("12345678");
  });
  {
    auto stream = transport.connect("s:1", kTimeout);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE((*stream)->write_all("abc").ok());
    ASSERT_TRUE(read_to_eof(**stream).ok());
  }
  (void)transport.connect("missing:2", kTimeout);

  const AddressStats s1 = transport.stats("s:1");
  EXPECT_EQ(s1.connects, 1u);
  EXPECT_EQ(s1.bytes_served, 8u);
  EXPECT_EQ(s1.bytes_received, 3u);
  EXPECT_EQ(transport.stats("missing:2").failed_connects, 1u);
  transport.reset_stats();
  EXPECT_EQ(transport.stats("s:1").connects, 0u);
}

// ---------------------------------------------------------- listener mode

TEST(InMem, ListenerAcceptsPipedConnections) {
  InMemTransport transport;
  auto listener = transport.listen("srv:9000");
  ASSERT_TRUE(listener.ok());

  std::jthread server([&] {
    auto stream = accept_one(**listener);
    ASSERT_TRUE(stream.ok());
    auto line = read_line(**stream);
    ASSERT_TRUE(line.ok());
    ASSERT_TRUE((*stream)->write_all("echo:" + *line).ok());
    (*stream)->close();
  });

  auto client = transport.connect("srv:9000", kTimeout);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->write_all("hello\n").ok());
  auto reply = read_to_eof(**client);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:hello");
}

TEST(InMem, EphemeralPortsAreAssigned) {
  InMemTransport transport;
  auto a = transport.listen("h:0");
  auto b = transport.listen("h:0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->address(), (*b)->address());
}

TEST(InMem, DoubleBindRejected) {
  InMemTransport transport;
  auto a = transport.listen("h:7");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(transport.listen("h:7").ok());
}

// ------------------------------------------------------- protocol helpers

TEST(Protocol, ReadLineSplitsOnNewlineAndStripsCr) {
  InMemTransport transport;
  transport.register_service("s:1", [](std::string_view) {
    return Result<std::string>("first\r\nsecond\n");
  });
  auto stream = transport.connect("s:1", kTimeout);
  ASSERT_TRUE(stream.ok());
  auto line1 = read_line(**stream);
  ASSERT_TRUE(line1.ok());
  EXPECT_EQ(*line1, "first");
  auto line2 = read_line(**stream);
  ASSERT_TRUE(line2.ok());
  EXPECT_EQ(*line2, "second");
  EXPECT_EQ(read_line(**stream).code(), Errc::closed);  // EOF
}

TEST(Protocol, ReadToEofEnforcesCap) {
  InMemTransport transport;
  transport.register_service("s:1", [](std::string_view) {
    return Result<std::string>(std::string(1000, 'x'));
  });
  auto stream = transport.connect("s:1", kTimeout);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(read_to_eof(**stream, 100).code(), Errc::io_error);
}

// ------------------------------------------------------------ tcp loopback

TEST(Tcp, LoopbackEchoEndToEnd) {
  TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  const std::string address = (*listener)->address();

  std::jthread server([&] {
    auto stream = accept_one(**listener);
    ASSERT_TRUE(stream.ok());
    auto line = read_line(**stream);
    ASSERT_TRUE(line.ok());
    ASSERT_TRUE((*stream)->write_all("pong:" + *line).ok());
    (*stream)->close();
  });

  auto client = transport.connect(address, kTimeout);
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  ASSERT_TRUE((*client)->write_all("ping\n").ok());
  auto reply = read_to_eof(**client);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(*reply, "pong:ping");
}

TEST(Tcp, ConnectRefusedOnClosedPort) {
  TcpTransport transport;
  // Bind a port, learn it, close it, then dial it.
  std::string dead_address;
  {
    auto listener = transport.listen("127.0.0.1:0");
    ASSERT_TRUE(listener.ok());
    dead_address = (*listener)->address();
    (*listener)->close();
  }
  auto stream = transport.connect(dead_address, kTimeout);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.code(), Errc::refused) << stream.error().to_string();
}

TEST(Tcp, RejectsMalformedAddresses) {
  TcpTransport transport;
  EXPECT_EQ(transport.listen("noport").code(), Errc::invalid_argument);
  EXPECT_EQ(transport.connect("host:notaport", kTimeout).code(),
            Errc::invalid_argument);
  EXPECT_EQ(transport.connect("host:99999", kTimeout).code(),
            Errc::invalid_argument);
}

TEST(Tcp, PeerAddressIsLoopback) {
  TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  ASSERT_TRUE(listener.ok());
  std::jthread server([&] {
    auto stream = accept_one(**listener);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ((*stream)->peer_address().rfind("127.0.0.1:", 0), 0u);
    (*stream)->close();
  });
  auto client = transport.connect((*listener)->address(), kTimeout);
  ASSERT_TRUE(client.ok());
  char c;
  (void)(*client)->read(&c, 1);  // wait for server close
}

}  // namespace
}  // namespace ganglia::net
