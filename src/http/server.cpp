#include "http/server.hpp"

#include <exception>

#include "common/log.hpp"

namespace ganglia::http {

namespace {

Response error_response(int status, std::string detail) {
  std::string body(reason_phrase(status));
  if (!detail.empty()) {
    body += ": ";
    body += detail;
  }
  body += '\n';
  return Response::make(status, std::move(body));
}

/// [head][payload] as writev-able chunks; moves the body out of `response`
/// (or aliases the cache entry via shared_body — the zero-copy path).
net::Reply make_reply(Response&& response, bool head, bool keep_alive) {
  net::Reply reply;
  reply.keep_open = keep_alive;
  reply.chunks.emplace_back().owned =
      serialize_head(response, head, keep_alive);
  if (head || response.status == 304) return reply;
  if (response.shared_body) {
    if (!response.shared_body->empty()) {
      reply.chunks.emplace_back().shared = std::move(response.shared_body);
    }
  } else if (!response.body.empty()) {
    reply.chunks.emplace_back().owned = std::move(response.body);
  }
  return reply;
}

}  // namespace

/// One connection's parser: each complete request becomes a Task, and a
/// framing error becomes the ordered 400 that ends the connection.
class HttpServer::Codec final : public net::Codec {
 public:
  explicit Codec(HttpServer& server)
      : server_(server), parser_(server.options_.limits) {}

  bool feed(std::string_view bytes, std::deque<net::Task>& out) override {
    parser_.feed(bytes);
    Request request;
    for (;;) {
      switch (parser_.poll(request)) {
        case RequestParser::Poll::ready:
          out.emplace_back([&server = server_, request = std::move(request),
                            served = ++parsed_] {
            return server.serve(request, served);
          });
          request = Request{};
          continue;
        case RequestParser::Poll::bad:
          out.emplace_back([&server = server_, error = parser_.error()] {
            return server.reject(error);
          });
          return false;
        case RequestParser::Poll::need_more:
          return true;
      }
    }
  }

 private:
  HttpServer& server_;
  RequestParser parser_;
  std::size_t parsed_ = 0;
};

Status HttpServer::start(net::Transport& transport, const std::string& address,
                         Handler handler, ServerOptions options) {
  if (reactor_.running()) {
    return Err(Errc::invalid_argument, "server already running");
  }
  handler_ = std::move(handler);
  options_ = options;
  auto bound = reactor_.listen(transport, address, [this](const net::Stream&) {
    return std::make_unique<Codec>(*this);
  });
  if (!bound.ok()) return bound.error();

  // Over cap: answer 503 so the client fails fast and retries elsewhere
  // instead of queueing behind a saturated gateway.
  Response busy = error_response(503, "connection limit reached");
  busy.set_header("Retry-After", "1");
  net::ReactorOptions reactor_options;
  reactor_options.max_connections = options_.max_connections;
  reactor_options.read_chunk = options_.read_chunk;
  reactor_options.workers = options_.event_threads;
  reactor_options.idle_timeout_us = options_.idle_timeout_us;
  reactor_options.max_outbox_bytes = options_.max_outbox_bytes;
  reactor_options.busy_reply = serialize_response(busy, /*head=*/false,
                                                  /*keep_alive=*/false);
  if (Status s = reactor_.start(std::move(reactor_options)); !s.ok()) {
    reactor_.stop();
    return s;
  }
  GLOG(info, "http") << "serving on " << *bound;
  return {};
}

void HttpServer::stop() {
  reactor_.stop();
  handler_ = nullptr;
}

HttpServer::Stats HttpServer::stats() const {
  Stats s{reactor_.stats()};
  s.requests = n_requests_.load();
  s.bad_requests = n_bad_requests_.load();
  return s;
}

net::Reply HttpServer::serve(const Request& request, std::size_t served) {
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  const bool head = request.method == "HEAD";
  if (request.version_minor >= 1 && request.find_header("Host") == nullptr) {
    // RFC 9112 §3.2: a 1.1 request without Host is invalid.
    return make_reply(error_response(400, "missing Host header"), head,
                      /*keep_alive=*/false);
  }
  Response response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    response = error_response(500, e.what());
  } catch (...) {
    response = error_response(500, "");
  }
  const bool keep_alive = request.keep_alive() && response.status != 400 &&
                          served < options_.max_requests_per_connection;
  return make_reply(std::move(response), head, keep_alive);
}

net::Reply HttpServer::reject(const std::string& parse_error) {
  n_bad_requests_.fetch_add(1, std::memory_order_relaxed);
  return make_reply(error_response(400, parse_error), /*head=*/false,
                    /*keep_alive=*/false);
}

}  // namespace ganglia::http
