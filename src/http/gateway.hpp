// Gmetad HTTP gateway: the web front door.
//
// Routes (GET/HEAD only; anything else is 405):
//
//   /                         endpoint index (HTML)
//   /xml/<path>[?filter=summary]      raw query-engine XML — the existing
//                                     interactive-port language over HTTP
//   /api/v1/<path>[?filter=summary]   same query rendered as JSON
//   /api/v1/archiver          archiver stats (ARCHIVER JSON object; never
//                             cached — Cache-Control: no-store)
//   /api/v1/members           gossip membership table (MEMBERS JSON array:
//                             id, address, state, incarnation, metadata,
//                             plus GOSSIP counters; never cached); 404 when
//                             membership gossip is not enabled
//   /api/v1/federation        delta federation live stats (FEDERATION JSON
//                             object: per-source session mode and delta vs
//                             full counters, plus this node's publisher
//                             counters; never cached)
//   /api/v1/query?metric=...  relational query engine (src/query): filter →
//                             group-by → aggregate → order-by/top-k → limit
//                             evaluated server-side, QUERY JSON object;
//                             cached per plan with exact per-source deps.
//                             Grammar errors are 400, budget breaches 422,
//                             both with a structured ERROR JSON body.
//   /ui/meta                  meta view (per-source summary table)
//   /ui/cluster/<cluster>     cluster view (per-host table)
//   /ui/host/<cluster>/<host> host page with inline SVG RRD graphs
//
// All formats render through the unified pipeline (gmetad/render): one
// tree traversal in the query engine feeds the XML, JSON, and HTML
// backends, and whole-tree responses splice the serialized fragments
// each snapshot carries instead of re-walking the store.
//
// Every 200 passes through a ResponseCache validated by the store versions
// the body was rendered from (render::Deps) plus a TTL floor, with strong
// ETags: a dashboard hammering F5 costs one render per publish *of the
// sources that page reads* — publishing source A leaves cached pages for
// source B valid — and If-None-Match revalidation costs no body bytes at
// all (304).  The gateway layers *on top of* Gmetad exactly like
// src/alarm does — gmetad knows nothing about HTTP.
#pragma once

#include <string>
#include <vector>

#include "gmetad/gmetad.hpp"
#include "http/cache.hpp"
#include "http/http.hpp"
#include "http/server.hpp"

namespace ganglia::http {

struct GatewayOptions {
  std::int64_t cache_ttl_s = 15;     ///< TTL floor; <=0 = version-only
  std::size_t cache_entries = 512;
  /// Host pages graph these metrics (when archived) over history_window_s.
  std::vector<std::string> graph_metrics = {"load_one", "cpu_user",
                                            "mem_free"};
  std::int64_t history_window_s = 3600;
  /// /api/v1/query execution budget; the daemon forwards GmetadConfig's
  /// query_max_* knobs here (same wiring as cache_ttl_s).  Breaches fail
  /// with a structured 422.
  std::uint64_t query_max_scan = 1'000'000;
  std::uint64_t query_max_groups = 10'000;
  std::uint64_t query_max_result_bytes = 1u << 20;
};

class Gateway {
 public:
  Gateway(gmetad::Gmetad& monitor, Clock& clock, GatewayOptions options = {});

  /// Route one request.  Cached hits come back zero-copy: the payload is
  /// an aliasing shared_body into the cache entry, which the server
  /// writev's without ever copying the bytes.
  Response route(const Request& request);

  /// Route one request and materialize the payload into `body` — the
  /// convenience entry point for direct callers that inspect responses
  /// without a server in front.
  Response handle(const Request& request) {
    Response response = route(request);
    if (response.shared_body) {
      response.body = *response.shared_body;
      response.shared_body.reset();
    }
    return response;
  }

  /// Adapter for HttpServer::start (zero-copy path).
  Handler handler() {
    return [this](const Request& request) { return route(request); };
  }

  ResponseCache& cache() noexcept { return cache_; }

  /// Attach the HttpServer whose counters /api/v1/server reports.  The
  /// server must outlive the gateway (GatewayServer wires this up).
  void set_server(const HttpServer* server) noexcept { server_ = server; }

 private:
  struct Content {
    std::string body;
    std::string content_type;
    gmetad::render::Deps deps;  ///< store versions the body depends on
    /// Live stats views bypass the response cache entirely (served with
    /// Cache-Control: no-store, no ETag).
    bool no_store = false;
    /// Status for no_store bodies (structured query errors ride this path
    /// as 400/422 JSON documents); cached content is always 200.
    int status = 200;
  };

  /// Render a target from the store (cache miss path).  Non-200 outcomes
  /// are returned as ready responses and never cached.
  Result<Content> render(std::string_view path, std::string_view query);

  Result<Content> render_xml(std::string_view path, std::string_view query);
  Result<Content> render_api(std::string_view path, std::string_view query);
  Result<Content> render_ui(std::string_view path);
  Content render_index() const;
  Content render_archiver_stats();
  Content render_federation_stats();
  Result<Content> render_members();
  Result<Content> render_server_stats();
  Content render_query(std::string_view query);

  /// Map gateway/query errors onto HTTP statuses (400/404/500).
  static Response error_to_response(const Error& error);

  gmetad::Gmetad& monitor_;
  Clock& clock_;
  GatewayOptions options_;
  ResponseCache cache_;
  const HttpServer* server_ = nullptr;  ///< /api/v1/server source, optional
};

/// Convenience bundle: a Gateway plus the HttpServer serving it, the thing
/// a daemon wires from its `http_bind` config knob.
class GatewayServer {
 public:
  GatewayServer(gmetad::Gmetad& monitor, Clock& clock,
                GatewayOptions gateway_options = {},
                ServerOptions server_options = {})
      : gateway_(monitor, clock, std::move(gateway_options)),
        server_options_(server_options) {
    gateway_.set_server(&server_);
  }

  Status start(net::Transport& transport, const std::string& address) {
    return server_.start(transport, address, gateway_.handler(),
                         server_options_);
  }
  void stop() { server_.stop(); }

  std::string address() const { return server_.address(); }
  Gateway& gateway() noexcept { return gateway_; }
  HttpServer& server() noexcept { return server_; }

 private:
  Gateway gateway_;
  ServerOptions server_options_;
  HttpServer server_;
};

}  // namespace ganglia::http
