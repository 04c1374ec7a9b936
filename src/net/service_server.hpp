// Service ports: ServiceFns served over any transport on net::Reactor.
//
// Every port other than HTTP — gmond's XML port and the gmetad dump,
// interactive, federation and gossip ports — is the ServiceFn the
// in-memory fabric already calls, behind a Port: a request-boundary rule,
// whether the connection stays open after a reply, and who may connect.
// A request over its cap or malformed closes the connection without a
// reply; so does a service error, unless the service is wrapped in
// reply_errors().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace ganglia::net {

/// Where the request at the head of a connection's unread bytes ends.
struct RequestEnd {
  enum class State { need_more, complete, malformed };
  State state = State::need_more;
  std::size_t size = 0;      ///< request bytes handed to the service
  std::size_t consumed = 0;  ///< bytes the request occupies on the wire

  static RequestEnd need_more() { return {}; }
  static RequestEnd malformed() { return {State::malformed, 0, 0}; }
  static RequestEnd complete(std::size_t size) {
    return {State::complete, size, size};
  }
};

/// What a rule remembers between calls on one connection, so a request
/// dribbled in byte by byte is still scanned once; reset per request.
struct ScanState {
  std::size_t offset = 0;   ///< bytes of `unread` already scanned
  std::uint64_t count = 0;  ///< rule-defined tally
};

/// A port's request-boundary rule, applied to the bytes not yet consumed.
using RequestRule =
    std::function<RequestEnd(std::string_view unread, ScanState& scan)>;

/// How one port frames requests and treats its connections.
struct Port {
  RequestRule request_end;
  /// Serve further requests on the connection, one at a time and in
  /// order; otherwise close it after the first reply.
  bool keep_open = false;
  /// Checked once per accepted connection with the peer address; a
  /// refused peer is closed unanswered.  Empty admits everyone.
  std::function<bool(const std::string& peer)> admit;
};

/// Empty request, answered on accept; close after the reply.
Port dump_port();
/// One '\n'-terminated line (the '\n' and a trailing '\r' stripped), at
/// most 64 KiB — the read_line default; close after the reply.
Port line_port();

/// `service`, with errors answered as "<!-- ERROR: ... -->\n" instead of
/// a silent close.
ServiceFn reply_errors(ServiceFn service);

class ServiceServer {
 public:
  enum class Protocol {
    dump,         ///< dump_port(): serve service("") and close
    interactive,  ///< line_port(): read one line, serve service(line), close
  };

  ServiceServer() = default;
  ~ServiceServer() { stop(); }

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind `address` on `transport` and serve until stop(); service errors
  /// are answered with reply_errors().
  Status start(Transport& transport, const std::string& address,
               ServiceFn service, Protocol protocol = Protocol::dump);

  /// Several ports on one reactor: bind() each, then start().  Returns the
  /// bound address.
  Result<std::string> bind(Transport& transport, const std::string& address,
                           ServiceFn service, Port port);
  Status start();

  /// Close every port and connection; joins the reactor's threads.
  void stop() { reactor_.stop(); }
  bool running() const noexcept { return reactor_.running(); }

  /// Bound address of the first port.
  std::string address() const { return reactor_.address(); }

 private:
  Reactor reactor_;
};

}  // namespace ganglia::net
