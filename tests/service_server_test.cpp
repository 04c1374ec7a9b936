// Tests for net::ServiceServer (the generic one-shot stream server) and the
// logging module.

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "net/inmem.hpp"
#include "net/service_server.hpp"
#include "net/tcp.hpp"

namespace ganglia::net {
namespace {

constexpr TimeUs kTimeout = 2 * kMicrosPerSecond;

TEST(ServiceServer, DumpProtocolServesAndCloses) {
  TcpTransport transport;
  ServiceServer server;
  ASSERT_TRUE(server
                  .start(transport, "127.0.0.1:0",
                         [](std::string_view) {
                           return Result<std::string>("payload");
                         })
                  .ok());
  ASSERT_TRUE(server.running());

  for (int i = 0; i < 3; ++i) {  // serves repeatedly
    auto stream = transport.connect(server.address(), kTimeout);
    ASSERT_TRUE(stream.ok());
    auto body = read_to_eof(**stream);
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(*body, "payload");
  }
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServiceServer, InteractiveProtocolPassesRequestLine) {
  TcpTransport transport;
  ServiceServer server;
  ASSERT_TRUE(server
                  .start(transport, "127.0.0.1:0",
                         [](std::string_view request) {
                           return Result<std::string>("echo:" +
                                                      std::string(request));
                         },
                         ServiceServer::Protocol::interactive)
                  .ok());
  auto stream = transport.connect(server.address(), kTimeout);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->write_all("QUERY 1\n").ok());
  auto body = read_to_eof(**stream);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "echo:QUERY 1");
}

TEST(ServiceServer, ServiceErrorsReportedAsXmlComment) {
  TcpTransport transport;
  ServiceServer server;
  ASSERT_TRUE(server
                  .start(transport, "127.0.0.1:0",
                         [](std::string_view) -> Result<std::string> {
                           return Err(Errc::internal, "boom");
                         })
                  .ok());
  auto stream = transport.connect(server.address(), kTimeout);
  ASSERT_TRUE(stream.ok());
  auto body = read_to_eof(**stream);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body->find("ERROR"), std::string::npos);
  EXPECT_NE(body->find("boom"), std::string::npos);
}

TEST(ServiceServer, DoubleStartRejectedStopIdempotent) {
  TcpTransport transport;
  ServiceServer server;
  ASSERT_TRUE(server
                  .start(transport, "127.0.0.1:0",
                         [](std::string_view) {
                           return Result<std::string>("x");
                         })
                  .ok());
  EXPECT_FALSE(server
                   .start(transport, "127.0.0.1:0",
                          [](std::string_view) {
                            return Result<std::string>("y");
                          })
                   .ok());
  server.stop();
  server.stop();
}

TEST(ServiceServer, LineRuleResumesAcrossDribbledBytes) {
  const Port port = line_port();
  const std::string wire = "QUERY 1\r\nnext";
  ScanState scan;
  for (std::size_t n = 0; n < 9; ++n) {  // every prefix short of the '\n'
    EXPECT_EQ(port.request_end(std::string_view(wire).substr(0, n), scan).state,
              RequestEnd::State::need_more);
  }
  const RequestEnd end = port.request_end(wire, scan);
  ASSERT_EQ(end.state, RequestEnd::State::complete);
  EXPECT_EQ(end.size, 7u);      // "QUERY 1", CR and LF stripped
  EXPECT_EQ(end.consumed, 9u);  // the pipelined "next" stays unread

  ScanState fresh;
  EXPECT_EQ(port.request_end(std::string((64u << 10) + 1, 'x'), fresh).state,
            RequestEnd::State::malformed);
}

TEST(ServiceServer, WorksOverInMemTransportToo) {
  InMemTransport transport;
  ServiceServer server;
  ASSERT_TRUE(server
                  .start(transport, "svc:5000",
                         [](std::string_view) {
                           return Result<std::string>("inmem");
                         })
                  .ok());
  auto stream = transport.connect("svc:5000", kTimeout);
  ASSERT_TRUE(stream.ok());
  auto body = read_to_eof(**stream);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "inmem");
  server.stop();
}

}  // namespace
}  // namespace ganglia::net

namespace ganglia {
namespace {

TEST(Log, LevelGatingIsCheap) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::error);
  EXPECT_FALSE(log_enabled(LogLevel::debug));
  EXPECT_FALSE(log_enabled(LogLevel::info));
  EXPECT_TRUE(log_enabled(LogLevel::error));
  set_log_level(LogLevel::trace);
  EXPECT_TRUE(log_enabled(LogLevel::debug));
  set_log_level(LogLevel::off);
  EXPECT_FALSE(log_enabled(LogLevel::error));
  set_log_level(saved);
}

TEST(Log, MacroShortCircuitsWhenDisabled) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::error);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  GLOG(debug, "test") << expensive();
  EXPECT_EQ(evaluations, 0) << "disabled levels must not evaluate operands";
  set_log_level(saved);
}

TEST(Log, EmitDoesNotCrashAtEveryLevel) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::trace);
  GLOG(trace, "test") << "t " << 1;
  GLOG(debug, "test") << "d " << 2.5;
  GLOG(info, "test") << "i " << std::string("s");
  GLOG(warn, "test") << "w";
  GLOG(error, "test") << "e";
  set_log_level(saved);
}

}  // namespace
}  // namespace ganglia
