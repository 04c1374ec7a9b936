// The fig-2 tree workloads: tree_xml and dashboard.
//
// The tree is wired here rather than through gmetad::Testbed, because the
// testbed cannot set poll_threads and does not let a caller wrap what it
// registers.  Every service registered on the in-memory fabric (pseudo-
// gmond XML and federation services, child dump and federation services),
// every Gmetad::poll_once and the handler given to http::HttpServer runs
// inside a Scope, so each layer is timed from outside the program.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "gmetad/gmetad.hpp"
#include "gmetad/testbed.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "http/gateway.hpp"
#include "http/server.hpp"
#include "http_test_util.hpp"
#include "net/inmem.hpp"
#include "net/tcp.hpp"
#include "sim/sim_clock.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ganglia::Result;
using ganglia::gmetad::Testbed;
namespace gm = ganglia::gmetad;
namespace net = ganglia::net;
namespace http = ganglia::http;
namespace testutil = ganglia::http::testutil;

constexpr std::int64_t kPollIntervalS = 15;
/// Rounds before measuring: first full syncs, archive creation, and every
/// delta edge past its first (full) transfer.
constexpr int kWarmupRounds = 3;
/// Warm refreshes after each cold one.
constexpr int kWarmRefreshes = 10;

/// The dashboard's page set, refreshed in this order.  `layer` names the
/// module that renders the page; cold route times are reported under it.
struct Page {
  const char* target;
  const char* layer;
};
constexpr Page kPages[] = {
    {"/ui/meta", "presenter.meta"},
    {"/ui/cluster/root-alpha", "presenter.cluster"},
    {"/ui/host/root-alpha/compute-0-0.local", "presenter.host"},
    {"/api/v1/", "render.tree_json"},
    {"/xml/", "render.tree_xml"},
    {"/api/v1/query?metric=load_one&top=10", "query.top"},
    {"/api/v1/query?metric=load_one&last=600&cf=max&top=10", "query.range"},
};
constexpr std::size_t kPageCount = std::size(kPages);

// ------------------------------------------------------------------- tree

class Tree {
 public:
  Tree(std::size_t hosts, std::uint64_t seed, bool delta, Tracer& tracer)
      : tracer_(tracer), hosts_(hosts) {
    const gm::TestbedSpec spec = gm::fig2_spec(hosts, gm::Mode::n_level);
    std::uint64_t cluster_index = 0;
    for (const gm::TestbedNodeSpec& node : spec.nodes) {
      for (const std::string& cluster : node.cluster_names) {
        ganglia::gmon::PseudoGmondConfig config;
        config.cluster_name = cluster;
        config.host_count = hosts;
        config.seed = seed + (++cluster_index) * 7919;
        config.soft_state_timers = delta;
        auto gmond = std::make_unique<ganglia::gmon::PseudoGmond>(config, clock_);
        serve(Testbed::gmond_address(cluster), "gmon.report", cluster,
              gmond->service());
        if (delta) {
          serve(Testbed::gmond_federation_address(cluster), "gmon.fed",
                cluster, gmond->federation_service());
        }
        gmonds_.push_back(std::move(gmond));
      }
    }
    for (const gm::TestbedNodeSpec& node : spec.nodes) {
      gm::GmetadConfig config;
      config.grid_name = node.name;
      config.authority = "gmetad://" + node.name + ".gmeta:8651/";
      config.mode = gm::Mode::n_level;
      config.poll_threads = 1;  // 0 would resolve to the machine's width
      config.archive_enabled = true;
      config.archive_step_s = kPollIntervalS;
      const auto add_source = [&](const std::string& name, std::string xml,
                                  std::string fed) {
        gm::DataSourceConfig ds;
        ds.name = name;
        ds.addresses = {std::move(xml)};
        ds.poll_interval_s = kPollIntervalS;
        if (delta) ds.federation_address = std::move(fed);
        config.sources.push_back(std::move(ds));
      };
      for (const std::string& cluster : node.cluster_names) {
        add_source(cluster, Testbed::gmond_address(cluster),
                   Testbed::gmond_federation_address(cluster));
      }
      for (const std::string& child : node.children) {
        add_source(child, Testbed::dump_address(child),
                   Testbed::federation_address(child));
      }
      auto gmetad = std::make_unique<gm::Gmetad>(std::move(config), fabric_,
                                                 clock_);
      serve(Testbed::dump_address(node.name), "gmetad.dump", node.name,
            gmetad->dump_service());
      if (delta) {
        serve(Testbed::federation_address(node.name), "fed.serve", node.name,
              gmetad->federation_service());
      }
      nodes_.push_back(Node{node.name, std::move(gmetad), 0});
    }
    // Children before parents: post-order from the root (spec order puts
    // the root first and every child after its parent).
    std::vector<Node> ordered;
    const auto visit = [&](const auto& self, const std::string& name) -> void {
      for (const gm::TestbedNodeSpec& node : spec.nodes) {
        if (node.name != name) continue;
        for (const std::string& child : node.children) self(self, child);
        for (Node& n : nodes_) {
          if (n.name == name) ordered.push_back(std::move(n));
        }
      }
    };
    visit(visit, spec.nodes.front().name);
    nodes_ = std::move(ordered);
  }

  ~Tree() { server_.stop(); }
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  /// One poll round, children before parents.  Returns its wall time.
  std::int64_t run_round(RunResult& result) {
    ++round_;
    clock_.advance_seconds(static_cast<double>(kPollIntervalS));
    std::vector<std::vector<gm::Gmetad::PollResult>> polls;
    polls.reserve(nodes_.size());
    Scope round(tracer_, "round", "", round_);
    for (Node& node : nodes_) {
      Scope poll(tracer_, "gmetad.poll", node.name, round_);
      polls.push_back(node.gmetad->poll_once());
      poll.finish();
      node.self_cpu_ns += poll.self_cpu_ns();
    }
    round.finish();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      for (const gm::Gmetad::PollResult& p : polls[i]) {
        result.check(p.ok, nodes_[i].name + " poll of " + p.source + ": " +
                               p.error);
      }
    }
    const std::size_t up = root_hosts_up();
    result.check(up == 12 * hosts_, "root summary HOSTS UP " + std::to_string(up));
    return round.wall_ns();
  }

  /// Serve the root's gateway over TCP loopback and dial one keep-alive
  /// connection to it.
  Result<std::unique_ptr<net::Stream>> start_http() {
    gateway_ = std::make_unique<http::Gateway>(root(), clock_);
    http::ServerOptions options;
    options.event_threads = 1;
    options.max_requests_per_connection = std::size_t{1} << 40;
    auto started = server_.start(
        tcp_, "127.0.0.1:0",
        [this](const http::Request& request) {
          const std::uint64_t id =
              ganglia::parse_u64(request.header("X-Request-Id")).value_or(0);
          Scope route(tracer_, "http.route", "", id);
          http::Response response = gateway_->route(request);
          route.finish();
          route_cpu_ns_.fetch_add(route.cpu_ns(), std::memory_order_relaxed);
          return response;
        },
        options);
    if (!started.ok()) return started.error();
    return tcp_.connect(server_.address(), 10 * ganglia::kMicrosPerSecond);
  }

  gm::Gmetad& root() { return *nodes_.back().gmetad; }

  /// Every node, children first (the root is last).
  template <class F>
  void for_each_node(F&& f) {
    for (Node& node : nodes_) f(node.name, *node.gmetad);
  }

  /// Wire bytes over every poll edge so far (both directions).
  std::uint64_t wire_bytes() const {
    std::uint64_t total = 0;
    for (const std::string& address : addresses_) {
      const net::AddressStats s = fabric_.stats(address);
      total += s.bytes_served + s.bytes_received;
    }
    return total;
  }

  std::int64_t root_poll_self_cpu_ns() const { return nodes_.back().self_cpu_ns; }
  std::int64_t route_cpu_ns() const {
    return route_cpu_ns_.load(std::memory_order_relaxed);
  }
  http::Gateway* gateway() { return gateway_.get(); }

  std::size_t root_hosts_up() {
    std::size_t up = 0;
    for (const auto& snapshot : root().store().all()) {
      up += snapshot->summary().hosts_up;
    }
    return up;
  }

 private:
  struct Node {
    std::string name;
    std::unique_ptr<gm::Gmetad> gmetad;
    std::int64_t self_cpu_ns = 0;  ///< poll_once minus nested services
  };

  /// Register `inner` on the fabric behind a Scope named `layer`.
  void serve(const std::string& address, const char* layer,
             const std::string& node, net::ServiceFn inner) {
    addresses_.push_back(address);
    fabric_.register_service(
        address, [this, layer, node, inner = std::move(inner)](
                     std::string_view request) -> Result<std::string> {
          Scope scope(tracer_, layer, node, round_);
          Result<std::string> response = inner(request);
          scope.set_bytes(request.size() +
                          (response.ok() ? response->size() : 0));
          return response;
        });
  }

  Tracer& tracer_;
  std::size_t hosts_;
  std::uint64_t round_ = 0;
  ganglia::sim::SimClock clock_;
  net::InMemTransport fabric_;
  std::vector<std::string> addresses_;
  std::vector<std::unique_ptr<ganglia::gmon::PseudoGmond>> gmonds_;
  std::vector<Node> nodes_;  ///< poll order: children first, root last
  std::atomic<std::int64_t> route_cpu_ns_{0};
  net::TcpTransport tcp_;
  std::unique_ptr<http::Gateway> gateway_;
  http::HttpServer server_;  ///< declared last: stopped before the rest goes
};

// -------------------------------------------------------------- dashboard

/// One closed-loop client refreshing the page set over its connection.
class Dashboard {
 public:
  Dashboard(Tracer& tracer, std::unique_ptr<net::Stream> stream)
      : tracer_(tracer), stream_(std::move(stream)) {}

  struct Timing {
    std::int64_t wall_ns = 0;
    std::int64_t client_cpu_ns = 0;  ///< this thread's CPU, checks included
  };

  /// Fetch every page once.  A cold refresh (the first after a publish)
  /// sets this round's reference bodies; a warm one must match them byte
  /// for byte.  Checks run after the timed part.
  Timing refresh(bool cold, std::uint64_t round, RunResult& result) {
    const std::int64_t cpu_start = thread_cpu_ns();
    std::vector<Result<testutil::ClientResponse>> replies;
    replies.reserve(kPageCount);
    Scope scope(tracer_, cold ? "view.cold" : "view.warm", "", round);
    for (const Page& page : kPages) {
      const std::uint64_t id = next_id_++;
      Scope request(tracer_, "http.client", page.layer, id);
      replies.push_back(get(page.target, id));
    }
    scope.finish();

    for (std::size_t i = 0; i < kPageCount; ++i) {
      const std::string page = kPages[i].target;
      if (!replies[i].ok()) {
        result.check(false, page + ": " + replies[i].error().to_string());
        continue;
      }
      testutil::ClientResponse& reply = *replies[i];
      result.check(reply.status == 200,
                   page + " answered " + std::to_string(reply.status));
      if (cold) {
        std::string etag = reply.header("ETag");
        if (!etags_[i].empty()) {
          result.check(etag != etags_[i], page + " kept its ETag");
        }
        etags_[i] = std::move(etag);
        bodies_[i] = std::move(reply.body);
      } else {
        result.check(reply.body == bodies_[i],
                     page + " warm body differs from cold");
      }
    }
    return Timing{scope.wall_ns(), thread_cpu_ns() - cpu_start};
  }

 private:
  /// One GET on the keep-alive connection.  The X-Request-Id header lets
  /// the handler wrapper join its route span to this request's client span.
  Result<testutil::ClientResponse> get(const char* target, std::uint64_t id) {
    const std::string request = std::string("GET ") + target +
                                " HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: " +
                                std::to_string(id) + "\r\n\r\n";
    if (auto s = stream_->write_all(request); !s.ok()) return s.error();
    return testutil::read_response(*stream_);
  }

  Tracer& tracer_;
  std::unique_ptr<net::Stream> stream_;
  std::uint64_t next_id_ = 1;
  std::string bodies_[kPageCount];
  std::string etags_[kPageCount];
};

// --------------------------------------------------------------- counters

struct Counters {
  std::uint64_t bytes = 0;
  std::uint64_t rrd_updates = 0;
  std::uint64_t delta_polls = 0;
  std::uint64_t full_polls = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::map<std::string, std::int64_t> meter_ns;  ///< per node
};

Counters read_counters(Tree& tree) {
  Counters c;
  c.bytes = tree.wire_bytes();
  tree.for_each_node([&](const std::string& name, gm::Gmetad& g) {
    c.rrd_updates += g.archiver().rrd_updates();
    for (const gm::DataSource* source : g.sources()) {
      c.delta_polls += source->delta_polls();
      c.full_polls += source->full_polls();
      c.resyncs += source->delta_resyncs();
    }
    c.meter_ns[name] = g.cpu_meter().total_ns();
  });
  if (http::Gateway* gateway = tree.gateway()) {
    const http::CacheStats stats = gateway->cache().stats();
    c.cache_hits = stats.hits;
    c.cache_misses = stats.misses;
  }
  return c;
}

/// Rounds this process measures.  Fixed by --seconds (never a time box),
/// sized so a whole run measures about that long on a 4-vCPU x86 VM.
std::size_t measured_rounds(const Options& options) {
  return share_of(options, options.smoke ? 4 : std::max(20, options.seconds * 11 / 2));
}

// -------------------------------------------------------------- per-layer

/// Per-layer metrics from the traced rounds' spans.
void report_layers(const std::vector<Span>& spans, std::size_t traced_rounds,
                   RunResult& r) {
  const double per_round = 1.0 / static_cast<double>(traced_rounds);
  const auto totals = layer_totals(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  for (const char* layer :
       {"gmon.report", "gmon.fed", "fed.serve", "gmetad.dump"}) {
    const LayerTotals t = total(layer);
    r.set(std::string(layer) + ".ms_per_round", t.ms * per_round, "ms");
    r.set(std::string(layer) + ".bytes_per_round",
          static_cast<double>(t.bytes) * per_round, "B");
  }
  const LayerTotals polls = total("gmetad.poll");
  r.set("gmetad.poll_self.ms_per_round", polls.self_ms * per_round, "ms");

  // Root self time, HTTP route and client spans need per-span joins.
  const std::vector<double> self = self_ms(spans);
  double root_self = 0;
  std::map<std::uint64_t, const Span*> client_by_id;
  std::map<std::uint64_t, bool> cold_by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::string_view(s.name) == "gmetad.poll" && s.node == "root") {
      root_self += self[i];
    } else if (std::string_view(s.name) == "http.client") {
      client_by_id[s.id] = &s;
      cold_by_id[s.id] = s.parent != Span::kNoParent &&
                         std::string_view(spans[s.parent].name) == "view.cold";
    }
  }
  r.set("gmetad.root.poll_self.ms_per_round", root_self * per_round, "ms");

  Samples route_ms, wire_ms;
  std::map<std::string, Samples> cold_ms;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "http.route") continue;
    route_ms.add(s.ms());
    const auto client = client_by_id.find(s.id);
    if (client == client_by_id.end()) continue;
    wire_ms.add(client->second->ms() - s.ms());
    if (cold_by_id[s.id]) cold_ms[client->second->node].add(s.ms());
  }
  r.set("http.route.ms_p50", route_ms.median(), "ms");
  r.set("http.route.ms_p99", route_ms.percentile(99), "ms");
  r.set("http.wire.ms_p50", wire_ms.median(), "ms");
  for (const Page& page : kPages) {
    r.set(std::string(page.layer) + ".cold_ms", cold_ms[page.layer].median(),
          "ms");
  }
}

}  // namespace

// --------------------------------------------------------------- workload

RunResult run_tree(const Options& options, bool delta) {
  RunResult r;
  Tracer tracer;
  const std::size_t hosts = options.smoke ? 4 : 100;
  const std::size_t rounds = measured_rounds(options);

  // Set up: build, warm up, and have the HTTP server up.
  const std::int64_t setup_start = wall_ns();
  auto tree = std::make_unique<Tree>(hosts, options.seed, delta, tracer);
  std::unique_ptr<Dashboard> dashboard;
  if (delta) {
    auto stream = tree->start_http();
    if (!stream.ok()) {
      r.check(false, "dashboard connect: " + stream.error().to_string());
      return r;
    }
    dashboard = std::make_unique<Dashboard>(tracer, std::move(*stream));
  }
  for (int w = 0; w < kWarmupRounds; ++w) {
    tree->run_round(r);
    if (dashboard) {
      dashboard->refresh(true, 0, r);
      dashboard->refresh(false, 0, r);
    }
  }
  const double setup_s = static_cast<double>(wall_ns() - setup_start) * 1e-9;

  // After warm-up every delta edge must stay on deltas: no resyncs, no
  // XML fallbacks while measuring.
  std::size_t delta_edges = 0, edges = 0;
  tree->for_each_node([&](const std::string&, gm::Gmetad& g) {
    for (const gm::DataSource* source : g.sources()) {
      ++edges;
      if (source->session_mode(0) == "delta") ++delta_edges;
    }
  });
  if (delta) {
    r.check(delta_edges == edges, std::to_string(edges - delta_edges) +
                                      " edges not in delta mode after warm-up");
  }

  const Counters before = read_counters(*tree);
  Samples round_ms, traced_round_ms, fresh_ms, cold_ms, warm_ms;
  std::int64_t client_cpu_ns = 0;
  std::size_t traced_rounds = 0;
  const std::int64_t root_cpu_before =
      tree->root_poll_self_cpu_ns() + tree->route_cpu_ns();
  const std::int64_t cpu_before = process_cpu_ns();
  for (std::size_t i = 0; i < rounds; ++i) {
    // The traced run interleaves traced and untraced rounds, so the two
    // halves see the same host and their p50 gap is the tracing overhead.
    const bool traced = traced_round(options.trace, i);
    tracer.set_recording(traced);
    const std::int64_t start = wall_ns();
    const double ms = ns_to_ms(tree->run_round(r));
    (traced ? traced_round_ms : round_ms).add(ms);
    traced_rounds += traced ? 1 : 0;
    if (!dashboard) continue;
    const Dashboard::Timing cold = dashboard->refresh(true, i + 1, r);
    fresh_ms.add(ns_to_ms(wall_ns() - start));
    cold_ms.add(ns_to_ms(cold.wall_ns));
    client_cpu_ns += cold.client_cpu_ns;
    for (int k = 0; k < kWarmRefreshes; ++k) {
      const Dashboard::Timing warm = dashboard->refresh(false, i + 1, r);
      warm_ms.add(ns_to_ms(warm.wall_ns));
      client_cpu_ns += warm.client_cpu_ns;
    }
  }
  const std::int64_t cpu_ns = process_cpu_ns() - cpu_before - client_cpu_ns;
  tracer.set_recording(false);
  const Counters after = read_counters(*tree);
  const double per_round = 1.0 / static_cast<double>(rounds);

  if (delta) {
    r.check(after.resyncs == before.resyncs,
            std::to_string(after.resyncs - before.resyncs) +
                " delta resyncs while measuring");
    r.check(after.full_polls == before.full_polls,
            std::to_string(after.full_polls - before.full_polls) +
                " XML fallbacks while measuring");
  }

  // End-to-end metrics.
  const Samples& rounds_ms = options.trace ? traced_round_ms : round_ms;
  r.set("setup_s", setup_s, "s");
  r.set("round_ms_p50", rounds_ms.median(), "ms");
  r.set("round_ms_p90", rounds_ms.percentile(90), "ms");
  r.set("cpu_ms_per_round", ns_to_ms(cpu_ns) * per_round, "ms");
  r.set("bytes_per_round",
        static_cast<double>(after.bytes - before.bytes) * per_round, "B");
  const double root_cpu = ns_to_ms(tree->root_poll_self_cpu_ns() +
                                   tree->route_cpu_ns() - root_cpu_before) *
                          per_round;
  r.set("root_cpu_ms_per_round", root_cpu, "ms");
  r.samples["round_ms"] = rounds_ms;
  if (delta) {
    r.samples["fresh_ms"] = fresh_ms;
    r.samples["view_cold_ms"] = cold_ms;
    r.samples["view_warm_ms"] = warm_ms;
    r.set("fresh_ms_p50", fresh_ms.median(), "ms");
    r.set("fresh_ms_p90", fresh_ms.percentile(90), "ms");
    r.set("view_cold_ms_p50", cold_ms.median(), "ms");
    r.set("view_cold_ms_p90", cold_ms.percentile(90), "ms");
    r.set("view_warm_ms_p50", warm_ms.median(), "ms");
    r.set("view_warm_ms_p99", warm_ms.percentile(99), "ms");
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "root cpu %.3f ms/round; Gmetad::cpu_meter() says %.3f "
                "ms/round (meter excludes fetch wait and HTTP framing)",
                root_cpu,
                ns_to_ms(after.meter_ns.at("root") - before.meter_ns.at("root")) *
                    per_round);
  r.note(line);
  std::snprintf(line, sizeof line,
                "samples: %zu rounds, %zu cold and %zu warm refreshes of %zu "
                "pages",
                rounds_ms.size(), cold_ms.size(), warm_ms.size(), kPageCount);
  r.note(line);

  // Per-layer metrics: counters over every measured round, spans over the
  // traced ones.
  for (const auto& [name, ns] : after.meter_ns) {
    r.set("gmetad." + name + ".cpu_ms_per_round",
          ns_to_ms(ns - before.meter_ns.at(name)) * per_round, "ms");
  }
  r.set("fed.delta_polls_per_round",
        static_cast<double>(after.delta_polls - before.delta_polls) * per_round,
        "count");
  r.set("fed.full_polls_per_round",
        static_cast<double>(after.full_polls - before.full_polls) * per_round,
        "count");
  r.set("fed.resyncs", static_cast<double>(after.resyncs - before.resyncs),
        "count");
  r.set("rrd.updates_per_round",
        static_cast<double>(after.rrd_updates - before.rrd_updates) * per_round,
        "count");
  std::size_t databases = 0, storage = 0;
  tree->for_each_node([&](const std::string&, gm::Gmetad& g) {
    databases += g.archiver().database_count();
    storage += g.archiver().storage_bytes();
  });
  r.set("rrd.databases", static_cast<double>(databases), "count");
  r.set("rrd.storage_mb", static_cast<double>(storage) / (1024.0 * 1024.0),
        "MB");
  const std::uint64_t lookups = (after.cache_hits - before.cache_hits) +
                                (after.cache_misses - before.cache_misses);
  r.set("http.cache.lookups", static_cast<double>(lookups), "count");
  r.set("http.cache.hit_ratio",
        lookups == 0 ? 0
                     : static_cast<double>(after.cache_hits - before.cache_hits) /
                           static_cast<double>(lookups),
        "ratio");
  if (options.trace) {
    const std::vector<Span> spans = tracer.spans();
    report_layers(spans, traced_rounds, r);
    report_trace_coverage(spans, traced_round_ms, round_ms, r);
    if (!options.trace_path.empty() && !tracer.write(options.trace_path)) {
      r.check(false, "cannot write " + options.trace_path);
    }
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace perfbench
