#include "net/service_server.hpp"

#include <memory>

#include "common/log.hpp"

namespace ganglia::net {

namespace {

struct PortState {
  ServiceFn service;
  Port port;
};

/// Cuts requests out of one connection's bytes with the port's rule and
/// turns each into a Task that calls the service.
class ServiceCodec final : public Codec {
 public:
  explicit ServiceCodec(std::shared_ptr<const PortState> state)
      : state_(std::move(state)) {}

  bool feed(std::string_view bytes, std::deque<Task>& out) override {
    unread_.append(bytes);
    for (;;) {
      const RequestEnd end = state_->port.request_end(unread_, scan_);
      if (end.state == RequestEnd::State::malformed) return false;
      if (end.state == RequestEnd::State::need_more) return true;
      out.emplace_back([state = state_.get(),
                        request = unread_.substr(0, end.size)] {
        Reply reply;
        auto response = state->service(request);
        if (response.ok()) {
          reply.chunks.emplace_back().owned = std::move(*response);
          reply.keep_open = state->port.keep_open;
        }
        return reply;
      });
      unread_.erase(0, end.consumed);
      scan_ = {};
      if (!state_->port.keep_open) return false;
    }
  }

 private:
  std::shared_ptr<const PortState> state_;
  std::string unread_;
  ScanState scan_;
};

}  // namespace

Port dump_port() {
  return {[](std::string_view, ScanState&) { return RequestEnd::complete(0); },
          false,
          {}};
}

Port line_port() {
  constexpr std::size_t kMaxLine = 64u << 10;
  Port port;
  port.request_end = [](std::string_view unread, ScanState& scan) {
    const std::size_t newline = unread.find('\n', scan.offset);
    if (newline == std::string_view::npos) {
      scan.offset = unread.size();
      return unread.size() > kMaxLine ? RequestEnd::malformed()
                                      : RequestEnd::need_more();
    }
    if (newline > kMaxLine) return RequestEnd::malformed();
    RequestEnd end = RequestEnd::complete(newline + 1);
    end.size = newline > 0 && unread[newline - 1] == '\r' ? newline - 1
                                                          : newline;
    return end;
  };
  return port;
}

ServiceFn reply_errors(ServiceFn service) {
  return [service = std::move(service)](
             std::string_view request) -> Result<std::string> {
    auto response = service(request);
    if (response.ok()) return response;
    return "<!-- ERROR: " + response.error().to_string() + " -->\n";
  };
}

Status ServiceServer::start(Transport& transport, const std::string& address,
                            ServiceFn service, Protocol protocol) {
  if (running()) return Err(Errc::invalid_argument, "server already running");
  auto bound = bind(transport, address, reply_errors(std::move(service)),
                    protocol == Protocol::dump ? dump_port() : line_port());
  if (!bound.ok()) return bound.error();
  return start();
}

Result<std::string> ServiceServer::bind(Transport& transport,
                                        const std::string& address,
                                        ServiceFn service, Port port) {
  auto state = std::make_shared<const PortState>(
      PortState{std::move(service), std::move(port)});
  return reactor_.listen(
      transport, address,
      [state](const Stream& stream) -> std::unique_ptr<Codec> {
        if (state->port.admit && !state->port.admit(stream.peer_address())) {
          return nullptr;
        }
        return std::make_unique<ServiceCodec>(state);
      });
}

Status ServiceServer::start() {
  if (running()) return Err(Errc::invalid_argument, "server already running");
  if (Status s = reactor_.start(); !s.ok()) {
    reactor_.stop();
    return s;
  }
  GLOG(debug, "server") << "serving on " << reactor_.address();
  return {};
}

}  // namespace ganglia::net
