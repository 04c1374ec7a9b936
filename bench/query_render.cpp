// Whole-tree render: tree walk vs snapshot fragment splice.
//
// A gmetad's most expensive response is the full-detail dump ("/"), the
// document a parent polls every round and the one the gateway's cold path
// renders.  The unified render pipeline materialises each source's
// serialized subtree at most once per snapshot; the full-tree response is
// then composed by splicing those pre-escaped byte fragments instead of
// re-walking every host and metric.  This bench measures both paths at
// fig-5 scale (sources x hosts as the paper's tree experiment) in both
// formats:
//
//   walk          fragments disabled — every render walks the whole tree;
//   splice_cold   fresh snapshots each iteration — the render pays the
//                 one-time fragment build (what the poll worker absorbs
//                 for the slots readers asked for);
//   splice_warm   fragments materialised — steady state between publishes.
//
// Expected: splice_warm >= 3x walk (the acceptance floor; in practice the
// warm splice is memcpy-bound and far above it).  Byte equality of walk
// and splice output is asserted before anything is timed.
//
// Writes machine-readable results to BENCH_query_render.json.
//
// Usage: query_render [iterations] [sources] [hosts_per_source]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "gmetad/query.hpp"
#include "gmetad/render/fragments.hpp"
#include "gmetad/store.hpp"
#include "xml/json.hpp"

using namespace ganglia;
using gmetad::QueryContext;
using gmetad::QueryEngine;
using gmetad::SourceSnapshot;
using gmetad::Store;

namespace {

Report make_report(const std::string& source, std::size_t hosts) {
  Report report;
  Cluster c;
  c.name = source;
  c.localtime = 1000;
  for (std::size_t i = 0; i < hosts; ++i) {
    Host h;
    h.name = "node-" + std::to_string(i) + "." + source;
    h.ip = "10.0.0." + std::to_string(i);
    h.reported = 995;
    h.tn = 5;
    const char* names[] = {"load_one",  "load_five", "cpu_user", "cpu_system",
                           "cpu_num",   "mem_total", "mem_free", "proc_run",
                           "bytes_in",  "bytes_out"};
    for (const char* name : names) {
      Metric m;
      m.name = name;
      m.set_double(0.5 + static_cast<double>(i % 17));
      m.tn = 5;
      h.metrics.push_back(std::move(m));
    }
    c.hosts.emplace(h.name, std::move(h));
  }
  report.clusters.push_back(std::move(c));
  return report;
}

void publish_all(Store& store, std::size_t sources, std::size_t hosts) {
  for (std::size_t s = 0; s < sources; ++s) {
    const std::string name = "cluster-" + std::to_string(s);
    store.publish(
        std::make_shared<SourceSnapshot>(name, make_report(name, hosts), 1000));
  }
}

std::string render_once(QueryEngine& engine, const QueryContext& ctx,
                        gmetad::render::Format format) {
  auto rendered = engine.execute_rendered("/", ctx, format);
  if (!rendered.ok()) {
    std::fprintf(stderr, "render failed: %s\n",
                 rendered.error().to_string().c_str());
    std::abort();
  }
  return std::move(rendered->body);
}

struct FormatResult {
  std::string format;
  std::size_t bytes = 0;
  double walk_rps = 0;
  double splice_cold_rps = 0;
  double splice_warm_rps = 0;
  double warm_speedup() const {
    return walk_rps > 0 ? splice_warm_rps / walk_rps : 0;
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t iterations =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 50;
  const std::size_t sources =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 10;
  const std::size_t hosts =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 50;

  QueryContext ctx;
  ctx.grid_name = "bench";
  ctx.authority = "gmetad://bench:8651/";
  ctx.now = 1005;
  ctx.mode = gmetad::Mode::n_level;

  std::printf("whole-tree render, %zu sources x %zu hosts, %zu iterations\n\n",
              sources, hosts, iterations);
  std::printf("%-6s %10s %12s %14s %14s %9s\n", "format", "bytes", "walk r/s",
              "cold splice/s", "warm splice/s", "speedup");

  std::vector<FormatResult> results;
  for (const auto format :
       {gmetad::render::Format::xml, gmetad::render::Format::json}) {
    FormatResult result;
    result.format = format == gmetad::render::Format::xml ? "xml" : "json";

    Store store;
    publish_all(store, sources, hosts);
    QueryEngine engine(store);

    // Correctness gate: splice output must equal the walk byte for byte.
    engine.set_use_fragments(false);
    const std::string walked = render_once(engine, ctx, format);
    engine.set_use_fragments(true);
    const std::string spliced = render_once(engine, ctx, format);
    if (walked != spliced) {
      std::fprintf(stderr, "%s: splice output diverges from walk\n",
                   result.format.c_str());
      return 1;
    }
    result.bytes = walked.size();

    // walk: every render traverses the whole tree.
    engine.set_use_fragments(false);
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      (void)render_once(engine, ctx, format);
    }
    result.walk_rps = static_cast<double>(iterations) / seconds_since(start);

    // splice_cold: fresh snapshots every iteration; only the render (which
    // includes the one-time fragment build) is timed.
    engine.set_use_fragments(true);
    double cold_seconds = 0;
    for (std::size_t i = 0; i < iterations; ++i) {
      publish_all(store, sources, hosts);  // untimed: parse/publish work
      const auto t0 = std::chrono::steady_clock::now();
      (void)render_once(engine, ctx, format);
      cold_seconds += seconds_since(t0);
    }
    result.splice_cold_rps = static_cast<double>(iterations) / cold_seconds;

    // splice_warm: fragments stay materialised (steady state).
    (void)render_once(engine, ctx, format);  // prime
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      (void)render_once(engine, ctx, format);
    }
    result.splice_warm_rps =
        static_cast<double>(iterations) / seconds_since(start);

    std::printf("%-6s %10zu %12.1f %14.1f %14.1f %8.1fx\n",
                result.format.c_str(), result.bytes, result.walk_rps,
                result.splice_cold_rps, result.splice_warm_rps,
                result.warm_speedup());
    results.push_back(std::move(result));
  }

  double min_speedup = results.front().warm_speedup();
  for (const FormatResult& r : results) {
    if (r.warm_speedup() < min_speedup) min_speedup = r.warm_speedup();
  }
  std::printf("\nminimum warm-splice speedup over walk: %.1fx\n", min_speedup);

  char date[32];
  const std::time_t wall_now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&wall_now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);

  std::string json;
  xml::JsonWriter w(json);
  w.begin_object();
  w.key("name");
  w.value("query_render");
  w.key("date");
  w.value(date);
  w.key("config");
  w.begin_object();
  w.key("sources");
  w.value(static_cast<std::uint64_t>(sources));
  w.key("hosts_per_source");
  w.value(static_cast<std::uint64_t>(hosts));
  w.key("iterations");
  w.value(static_cast<std::uint64_t>(iterations));
  w.end_object();
  w.key("metrics");
  w.begin_object();
  w.key("formats");
  w.begin_array();
  for (const FormatResult& r : results) {
    w.begin_object();
    w.key("format");
    w.value(r.format);
    w.key("document_bytes");
    w.value(static_cast<std::uint64_t>(r.bytes));
    w.key("walk_rps");
    w.value(r.walk_rps);
    w.key("splice_cold_rps");
    w.value(r.splice_cold_rps);
    w.key("splice_warm_rps");
    w.value(r.splice_warm_rps);
    w.key("warm_speedup");
    w.value(r.warm_speedup());
    w.end_object();
  }
  w.end_array();
  w.key("min_warm_speedup");
  w.value(min_speedup);
  w.end_object();
  w.end_object();
  json += '\n';

  const char* out_path = "BENCH_query_render.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
