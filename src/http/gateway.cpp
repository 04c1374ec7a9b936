#include "http/gateway.hpp"

#include "common/cpu_timer.hpp"
#include "common/strings.hpp"
#include "xml/json.hpp"
#include "gmetad/render/traversal.hpp"
#include "http/json_body.hpp"
#include "presenter/html_backend.hpp"
#include "query/executor.hpp"
#include "query/grammar.hpp"
#include "query/render.hpp"

namespace ganglia::http {

namespace {

/// Collapse duplicate slashes and strip the trailing one: "/ui//meta/" and
/// "/ui/meta" must hit the same cache entry.
std::string normalize_path(std::string_view decoded) {
  std::string out;
  for (std::string_view segment : split(decoded, '/', /*skip_empty=*/true)) {
    out += '/';
    out += segment;
  }
  return out.empty() ? "/" : out;
}

/// Map "/xml/<rest>" (or "/api/v1/<rest>") onto a query-engine line.
Result<std::string> query_line(std::string_view rest, std::string_view query) {
  std::string line(rest.empty() ? std::string_view("/") : rest);
  if (!query.empty()) {
    if (query != "filter=summary") {
      return Err(Errc::invalid_argument,
                 "unknown query option '" + std::string(query) + "'");
    }
    line += "?filter=summary";
  }
  return line;
}

constexpr std::string_view kHtmlType = "text/html; charset=utf-8";
constexpr std::string_view kXmlType = "text/xml; charset=utf-8";
constexpr std::string_view kJsonType = "application/json";

}  // namespace

Gateway::Gateway(gmetad::Gmetad& monitor, Clock& clock, GatewayOptions options)
    : monitor_(monitor),
      clock_(clock),
      options_(std::move(options)),
      cache_(options_.cache_ttl_s, options_.cache_entries) {}

Response Gateway::error_to_response(const Error& error) {
  int status = 500;
  switch (error.code) {
    case Errc::invalid_argument:
    case Errc::parse_error:
      status = 400;
      break;
    case Errc::not_found:
      status = 404;
      break;
    case Errc::exhausted:
      status = 422;  // a resource budget, not a malformed request
      break;
    default:
      status = 500;
  }
  return Response::make(status, error.to_string() + "\n");
}

Response Gateway::route(const Request& request) {
  if (request.method != "GET" && request.method != "HEAD") {
    Response response =
        Response::make(405, "only GET and HEAD are supported\n");
    response.set_header("Allow", "GET, HEAD");
    return response;
  }

  std::string_view raw_path = request.target;
  std::string_view raw_query;
  if (const auto qmark = raw_path.find('?');
      qmark != std::string_view::npos) {
    raw_query = raw_path.substr(qmark + 1);
    raw_path = raw_path.substr(0, qmark);
  }
  const auto decoded_path = percent_decode(raw_path);
  const auto decoded_query = percent_decode(raw_query);
  if (!decoded_path || !decoded_query) {
    return Response::make(400, "malformed percent-escape in target\n");
  }
  const std::string path = normalize_path(*decoded_path);
  std::string key = path;
  if (!decoded_query->empty()) key += '?' + *decoded_query;

  const TimeUs now = clock_.now_us();
  auto entry = cache_.lookup(key, monitor_.store(), now);
  const bool hit = entry != nullptr;
  if (entry == nullptr) {
    auto content = render(path, *decoded_query);
    if (!content.ok()) return error_to_response(content.error());
    if (content->no_store) {
      // Live stats and structured query errors: every request reads the
      // current state; nothing is cached on either side.
      Response response =
          Response::make(content->status, std::move(content->body));
      response.set_header("Content-Type", content->content_type);
      response.set_header("Cache-Control", "no-store");
      response.set_header("X-Cache", "bypass");
      return response;
    }
    entry = cache_.insert(key, std::move(content->deps), now,
                          std::move(content->body),
                          std::move(content->content_type));
  }

  Response response;
  const std::string_view if_none_match = request.header("If-None-Match");
  if (!if_none_match.empty() && etag_matches(if_none_match, entry->etag)) {
    response.status = 304;
  } else {
    response.status = 200;
    // Zero-copy: alias the cache entry's body so the server writev's the
    // cached bytes directly — the entry stays alive as long as any
    // in-flight response references it.
    response.shared_body =
        std::shared_ptr<const std::string>(entry, &entry->body);
    response.set_header("Content-Type", entry->content_type);
  }
  response.set_header("ETag", entry->etag);
  // Clients must revalidate: freshness is decided by the store's publish
  // versions here, not by client-side heuristics.
  response.set_header("Cache-Control", "no-cache");
  response.set_header("X-Cache", hit ? "hit" : "miss");
  return response;
}

Result<Gateway::Content> Gateway::render(std::string_view path,
                                         std::string_view query) {
  if (path == "/") return render_index();
  if (path == "/xml" || starts_with(path, "/xml/")) {
    return render_xml(path.substr(4), query);
  }
  if (path == "/api/v1" || starts_with(path, "/api/v1/")) {
    return render_api(path.substr(7), query);
  }
  if (path == "/ui" || starts_with(path, "/ui/")) {
    return render_ui(path);
  }
  return Err(Errc::not_found, "no route for '" + std::string(path) + "'");
}

Result<Gateway::Content> Gateway::render_xml(std::string_view rest,
                                             std::string_view query) {
  auto line = query_line(rest, query);
  if (!line.ok()) return line.error();
  // Charged to the node's CPU meter; whole-tree responses splice the
  // publish-time fragments instead of re-walking the store.
  auto rendered =
      monitor_.query_rendered(*line, gmetad::render::Format::xml);
  if (!rendered.ok()) return rendered.error();
  return Content{std::move(rendered->body), std::string(kXmlType),
                 std::move(rendered->deps)};
}

Result<Gateway::Content> Gateway::render_api(std::string_view rest,
                                             std::string_view query) {
  if (rest == "/archiver") {
    if (!query.empty()) {
      return Err(Errc::invalid_argument,
                 "archiver stats take no query options");
    }
    return render_archiver_stats();
  }
  if (rest == "/federation") {
    if (!query.empty()) {
      return Err(Errc::invalid_argument,
                 "federation stats take no query options");
    }
    return render_federation_stats();
  }
  if (rest == "/members") {
    if (!query.empty()) {
      return Err(Errc::invalid_argument,
                 "membership view takes no query options");
    }
    return render_members();
  }
  if (rest == "/server") {
    if (!query.empty()) {
      return Err(Errc::invalid_argument,
                 "server stats take no query options");
    }
    return render_server_stats();
  }
  if (rest == "/query") {
    return render_query(query);
  }
  auto line = query_line(rest, query);
  if (!line.ok()) return line.error();
  // Same traversal as /xml, JSON backend — the old design rendered XML,
  // re-parsed it into the model, and re-rendered as JSON, paying two
  // serialisations and a parse per cache miss.
  auto rendered =
      monitor_.query_rendered(*line, gmetad::render::Format::json);
  if (!rendered.ok()) return rendered.error();
  return Content{std::move(rendered->body), std::string(kJsonType),
                 std::move(rendered->deps)};
}

Result<Gateway::Content> Gateway::render_ui(std::string_view path) {
  const auto segments = split(path, '/', /*skip_empty=*/true);  // "ui", ...
  const gmetad::Store& store = monitor_.store();

  if (segments.size() == 2 && segments[1] == "meta") {
    // The engine's meta-view walk through the HTML backend; render_meta
    // meters itself and reports the dependency set (all sources + the
    // source-set structure).
    presenter::MetaHtmlBackend backend;
    gmetad::render::Deps deps = monitor_.render_meta(backend);
    return Content{backend.take_html(), std::string(kHtmlType),
                   std::move(deps)};
  }

  if (segments.size() == 3 && segments[1] == "cluster") {
    ScopedCpuMeter meter(monitor_.cpu_meter());
    std::uint64_t structure_version = 0;
    for (const auto& vs : store.all_versioned(&structure_version)) {
      const Cluster* cluster = vs.snapshot->find_cluster(segments[2]);
      if (cluster == nullptr) continue;
      presenter::ClusterHtmlBackend backend;
      gmetad::render::walk_cluster(*cluster, backend);
      // The page depends on the snapshot it was read from; the structure
      // dep covers a new source taking over the cluster name.
      gmetad::render::Deps deps;
      deps.structure = true;
      deps.structure_version = structure_version;
      deps.sources.push_back({vs.snapshot->name(), vs.version});
      return Content{backend.take_html(), std::string(kHtmlType),
                     std::move(deps)};
    }
    return Err(Errc::not_found,
               "no cluster '" + std::string(segments[2]) + "'");
  }

  if (segments.size() == 4 && segments[1] == "host") {
    ScopedCpuMeter meter(monitor_.cpu_meter());
    const std::string_view cluster_name = segments[2];
    const std::string_view host_name = segments[3];
    std::uint64_t structure_version = 0;
    for (const auto& vs : store.all_versioned(&structure_version)) {
      const Cluster* cluster = vs.snapshot->find_cluster(cluster_name);
      if (cluster == nullptr) continue;
      const auto it = cluster->hosts.find(std::string(host_name));
      if (it == cluster->hosts.end()) break;
      // Inline SVG graphs for whichever of the standard metrics have
      // archived history — the rrdtool panel of the real frontend.
      std::vector<std::pair<std::string, rrd::Series>> histories;
      const std::int64_t now_s = clock_.now_us() / kMicrosPerSecond;
      for (const std::string& metric : options_.graph_metrics) {
        auto series = monitor_.archiver().fetch_host_metric(
            vs.snapshot->name(), std::string(cluster_name),
            std::string(host_name), metric, now_s - options_.history_window_s,
            now_s);
        if (series.ok()) histories.emplace_back(metric, std::move(*series));
      }
      presenter::HostHtmlBackend backend(std::string(cluster_name),
                                         histories);
      gmetad::render::walk_host_subtree(it->second, backend);
      gmetad::render::Deps deps;
      deps.structure = true;
      deps.structure_version = structure_version;
      deps.sources.push_back({vs.snapshot->name(), vs.version});
      return Content{backend.take_html(), std::string(kHtmlType),
                     std::move(deps)};
    }
    return Err(Errc::not_found, "no host '" + std::string(host_name) +
                                    "' in cluster '" +
                                    std::string(cluster_name) + "'");
  }

  return Err(Errc::not_found, "no view at '" + std::string(path) + "'");
}

Gateway::Content Gateway::render_archiver_stats() {
  gmetad::Archiver& archiver = monitor_.archiver();
  std::string body = json_object_body([&](xml::JsonWriter& w) {
    w.key("ARCHIVER");
    w.begin_object();
    w.key("DATABASES");
    w.value(static_cast<std::uint64_t>(archiver.database_count()));
    w.key("UPDATES");
    w.value(archiver.rrd_updates());
    w.key("STORAGE_BYTES");
    w.value(static_cast<std::uint64_t>(archiver.storage_bytes()));
    w.key("DIRTY");
    w.value(static_cast<std::uint64_t>(archiver.dirty_count()));
    w.key("FLUSHES");
    w.value(archiver.flush_count());
    const double since = archiver.seconds_since_last_flush();
    w.key("SECONDS_SINCE_FLUSH");
    if (since < 0) {
      w.null();  // nothing flushed yet (or persistence disabled)
    } else {
      w.value(since);
    }
    w.key("WRITE_BEHIND");
    w.value(archiver.flusher_running());
    w.end_object();
  });
  Content content{std::move(body), std::string(kJsonType), {}};
  content.no_store = true;
  return content;
}

Gateway::Content Gateway::render_federation_stats() {
  const std::int64_t now_s = clock_.now_us() / kMicrosPerSecond;
  std::string body = json_object_body([&](xml::JsonWriter& w) {
    w.key("FEDERATION");
    w.begin_object();
    w.key("SOURCES");
    w.begin_array();
    for (const gmetad::DataSource* source : monitor_.sources()) {
      w.begin_object();
      w.key("NAME");
      w.value(source->name());
      w.key("MODE");
      w.value(source->session_mode(now_s));
      w.key("DELTA_POLLS");
      w.value(source->delta_polls());
      w.key("FULL_POLLS");
      w.value(source->full_polls());
      w.key("RESYNCS");
      w.value(source->delta_resyncs());
      w.key("BYTES_DELTA");
      w.value(source->bytes_delta());
      w.key("BYTES_FULL");
      w.value(source->bytes_full());
      w.key("BYTES_SAVED");
      w.value(source->bytes_saved());
      w.key("DELTA_ERROR");
      w.value(source->delta_error());
      w.end_object();
    }
    w.end_array();
    const fed::PublisherStats stats = monitor_.federation_stats();
    w.key("PUBLISHER");
    w.begin_object();
    w.key("POLLS");
    w.value(stats.polls);
    w.key("DELTAS");
    w.value(stats.deltas);
    w.key("FULLS");
    w.value(stats.fulls);
    w.key("PINGS");
    w.value(stats.pings);
    w.key("ERRORS");
    w.value(stats.errors);
    w.key("EVICTIONS");
    w.value(stats.evictions);
    w.key("SESSIONS");
    w.value(static_cast<std::uint64_t>(stats.sessions));
    w.key("BYTES_OUT");
    w.value(stats.bytes_out);
    w.end_object();
    w.end_object();
  });
  // Session state and counters move with every poll; always serve live.
  Content content{std::move(body), std::string(kJsonType), {}};
  content.no_store = true;
  return content;
}

Result<Gateway::Content> Gateway::render_server_stats() {
  if (server_ == nullptr) {
    return Err(Errc::not_found, "no http server attached");
  }
  const HttpServer::Stats stats = server_->stats();
  std::string body = json_object_body([&](xml::JsonWriter& w) {
    w.key("SERVER");
    w.begin_object();
    w.key("ACTIVE_CONNECTIONS");
    w.value(static_cast<std::uint64_t>(server_->active_connections()));
    w.key("CONNECTIONS");
    w.value(stats.connections);
    w.key("REQUESTS");
    w.value(stats.requests);
    w.key("BAD_REQUESTS");
    w.value(stats.bad_requests);
    w.key("REJECTED_OVER_CAP");
    w.value(stats.rejected_over_cap);
    w.key("TIMEOUTS");
    w.value(stats.timeouts);
    w.key("BACKPRESSURE");
    w.value(stats.backpressure);
    w.end_object();
  });
  // Counters move on every request; caching one snapshot would serve
  // stale operational truth.
  Content content{std::move(body), std::string(kJsonType), {}};
  content.no_store = true;
  return content;
}

Result<Gateway::Content> Gateway::render_members() {
  const gossip::Agent* agent = monitor_.membership();
  if (agent == nullptr) {
    return Err(Errc::not_found, "membership gossip is not enabled");
  }
  std::string body = json_object_body([&](xml::JsonWriter& w) {
    w.key("MEMBERS");
    w.begin_array();
    for (const gossip::MemberEntry& member : agent->members()) {
      w.begin_object();
      w.key("ID");
      w.value(member.id);
      w.key("ADDRESS");
      w.value(member.address);
      w.key("STATE");
      w.value(gossip::member_state_name(member.state));
      w.key("INCARNATION");
      w.value(member.incarnation);
      w.key("SELF");
      w.value(member.id == agent->options().id);
      w.key("META");
      w.begin_object();
      for (const auto& [key, value] : member.meta) {
        w.key(key);
        w.value(value);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    const gossip::AgentStats stats = agent->stats();
    w.key("GOSSIP");
    w.begin_object();
    w.key("ROUNDS");
    w.value(stats.rounds);
    w.key("DIGEST_ROWS_SENT");
    w.value(stats.digest_rows_sent);
    w.key("FULL_RESYNCS");
    w.value(stats.full_resyncs);
    w.key("PIGGYBACK_EXCHANGES");
    w.value(stats.piggyback_exchanges);
    w.key("BYTES_OUT");
    w.value(stats.bytes_out);
    w.key("BYTES_IN");
    w.value(stats.bytes_in);
    w.end_object();
  });
  // Liveness must be observed live: a cached SUSPECT row would defeat the
  // point of looking.
  Content content{std::move(body), std::string(kJsonType), {}};
  content.no_store = true;
  return content;
}

Gateway::Content Gateway::render_query(std::string_view query) {
  query::Budget budget;
  budget.max_scan = options_.query_max_scan;
  budget.max_groups = options_.query_max_groups;
  budget.max_result_bytes = options_.query_max_result_bytes;

  // Grammar and budget failures are structured JSON documents on the
  // no_store path: 400s carry hostile text and 422s depend on the budget
  // knobs, so neither belongs in the response cache.
  auto fail = [](const query::QueryError& error) {
    Content content{json_object_body([&](xml::JsonWriter& w) {
                      query::render_error_json(error, w);
                    }),
                    std::string(kJsonType),
                    {}};
    content.no_store = true;
    content.status = error.status;
    return content;
  };

  const std::int64_t now_s = clock_.now_us() / kMicrosPerSecond;
  auto plan = query::parse_plan(query, now_s);
  if (!plan.ok()) return fail(plan.error());

  // Charged to the node's CPU meter like every other render: the paper's
  // figures track what monitoring costs the monitored.
  ScopedCpuMeter meter(monitor_.cpu_meter());
  auto output =
      query::execute(*plan, monitor_.store(), &monitor_.archiver(), budget);
  if (!output.ok()) return fail(output.error());

  Content content{json_object_body([&](xml::JsonWriter& w) {
                    query::render_json(*plan, *output, w);
                  }),
                  std::string(kJsonType), std::move(output->deps)};
  if (content.body.size() > budget.max_result_bytes) {
    return fail(query::budget_exceeded("query_max_result_bytes",
                                       budget.max_result_bytes,
                                       content.body.size()));
  }
  return content;
}

Gateway::Content Gateway::render_index() const {
  std::string body =
      "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
      "<title>ganglia gateway</title></head><body>"
      "<h1>Grid " +
      monitor_.config().grid_name +
      "</h1><ul>"
      "<li><a href=\"/ui/meta\">/ui/meta</a> — meta view</li>"
      "<li>/ui/cluster/&lt;cluster&gt; — cluster view</li>"
      "<li>/ui/host/&lt;cluster&gt;/&lt;host&gt; — host page with RRD "
      "graphs</li>"
      "<li><a href=\"/xml/\">/xml/&lt;path&gt;</a> — query-engine XML "
      "(?filter=summary)</li>"
      "<li><a href=\"/api/v1/\">/api/v1/&lt;path&gt;</a> — JSON API</li>"
      "<li><a href=\"/api/v1/query?metric=load_one&amp;top=10\">"
      "/api/v1/query</a> — relational query engine (filter, group-by, "
      "aggregate, top-k)</li>"
      "<li><a href=\"/api/v1/archiver\">/api/v1/archiver</a> — archiver "
      "stats (live, uncached)</li>"
      "<li><a href=\"/api/v1/federation\">/api/v1/federation</a> — delta "
      "federation stats</li>"
      "<li><a href=\"/api/v1/members\">/api/v1/members</a> — gossip "
      "membership table (live, uncached)</li>"
      "<li><a href=\"/api/v1/server\">/api/v1/server</a> — http server "
      "counters (live, uncached)</li>"
      "</ul></body></html>\n";
  // No store dependencies: the index is static apart from the grid name,
  // so the TTL floor alone governs it.
  return Content{std::move(body), std::string(kHtmlType), {}};
}

}  // namespace ganglia::http
