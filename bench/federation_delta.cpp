// Delta federation vs legacy full-XML polling at fig-5 scale: the paper's
// figure-2 tree (six gmetads, twelve monitored clusters) run twice over
// the deterministic fabric — once with every edge on the binary delta
// protocol, once with legacy whole-document fetches — under the soft-state
// gmond workload (per-metric rebroadcast timers, so only a fraction of
// metrics move per 15 s poll).
//
// Two measurements:
//
//   bytes      steady-state wire bytes per poll round, summed over every
//              edge of the tree, delta vs XML.  Acceptance: >= 10x
//              reduction once sessions are warm.
//
//   staleness  modeled end-to-end data age at the root for the deepest
//              chain (physics -> ucsd -> root): per level, half the poll
//              interval (sampling) plus the transfer time of that link's
//              per-poll bytes over a constrained WAN link.  This is a
//              model on top of measured bytes (the fabric has no latency),
//              and is labeled as such in the output.
//
// Every measured round also asserts that every node of the two trees
// renders a byte-identical document — the bench doubles as an end-to-end
// equivalence check.  It exits non-zero when any node diverges, when the
// steady-state reduction falls below its floor, when either chain edge
// carries more than its ceiling per delta poll (an N-level parent asks a
// child gmetad for its grid summary only, so those edges carry the
// summary's churn however large the clusters below them grow), or when
// the twelve gmond->gmetad edges carry more than their ceiling per host
// per delta poll (one host record per changed host, one short entry per
// changed metric).
//
// Writes machine-readable results to BENCH_federation.json.
//
// Usage: federation_delta [hosts_per_cluster] [rounds] [link_kbps]

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "gmetad/testbed.hpp"
#include "xml/json.hpp"

using namespace ganglia;

namespace {

/// Steady-state bytes reduction, delta vs XML, below which the run fails.
constexpr double kReductionFloor = 10.0;
/// Steady-state delta bytes per poll on a chain edge above which it fails.
constexpr double kEdgeCeiling = 1024.0;
/// Steady-state delta bytes per poll on the gmond->gmetad edges above
/// which it fails, as bytes per host: kGmondHostCeiling for each host's
/// record plus kGmondPollAllowance per poll, spread over the hosts, for
/// what does not grow with them (the request, the frames, and the
/// cluster's select, attribute and advance rows: about 80 B).
constexpr double kGmondHostCeiling = 35.0;
constexpr double kGmondPollAllowance = 80.0;

gmetad::TestbedSpec spec_for(std::size_t hosts, bool federation) {
  gmetad::TestbedSpec spec = gmetad::fig2_spec(hosts, gmetad::Mode::n_level);
  spec.archive_enabled = false;
  spec.soft_state = true;
  spec.federation = federation;
  return spec;
}

std::uint64_t tree_bytes(gmetad::Testbed& bed) {
  std::uint64_t total = 0;
  for (const gmetad::TestbedNodeSpec& node : bed.spec().nodes) {
    total += bed.node(node.name).bytes_polled();
  }
  return total;
}

/// Per-poll wire bytes of one parent->child edge, averaged over the
/// measured window.
struct EdgeBytes {
  std::string parent;
  std::string child;
  std::uint64_t before = 0;
  double per_poll = 0;
};

std::uint64_t edge_total(gmetad::Testbed& bed, const EdgeBytes& edge) {
  for (const gmetad::DataSource* source : bed.node(edge.parent).sources()) {
    if (source->name() == edge.child) {
      return source->bytes_delta() + source->bytes_full();
    }
  }
  std::fprintf(stderr, "edge %s->%s not found\n", edge.parent.c_str(),
               edge.child.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t hosts =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 50;
  const std::size_t rounds =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  const double link_kbps = argc > 3 ? std::atof(argv[3]) : 128.0;
  if (hosts == 0 || rounds == 0 || link_kbps <= 0) {
    std::fprintf(stderr,
                 "usage: federation_delta [hosts_per_cluster] [rounds] "
                 "[link_kbps]\n");
    return 1;
  }

  gmetad::Testbed delta_bed(spec_for(hosts, true));
  gmetad::Testbed xml_bed(spec_for(hosts, false));
  const double poll_s =
      static_cast<double>(delta_bed.spec().poll_interval_s);

  // The deepest chain of figure 2: root <- ucsd <- physics.
  std::vector<EdgeBytes> delta_edges = {{"root", "ucsd"}, {"ucsd", "physics"}};
  std::vector<EdgeBytes> xml_edges = delta_edges;
  // Every gmetad's local clusters: the gmond->gmetad edges.
  std::vector<EdgeBytes> gmond_edges;
  for (const gmetad::TestbedNodeSpec& node : delta_bed.spec().nodes) {
    for (const std::string& cluster : node.cluster_names) {
      gmond_edges.push_back({node.name, cluster});
    }
  }

  // Warm-up: session establishment and the unavoidable first fulls.
  constexpr std::size_t kWarmRounds = 2;
  delta_bed.run_rounds(kWarmRounds);
  xml_bed.run_rounds(kWarmRounds);

  std::uint64_t delta_before = tree_bytes(delta_bed);
  std::uint64_t xml_before = tree_bytes(xml_bed);
  for (EdgeBytes& e : delta_edges) e.before = edge_total(delta_bed, e);
  for (EdgeBytes& e : xml_edges) e.before = edge_total(xml_bed, e);
  for (EdgeBytes& e : gmond_edges) e.before = edge_total(delta_bed, e);

  std::printf(
      "delta federation vs full-XML polling: fig-2 tree, %zu hosts/cluster, "
      "%zu measured rounds (after %zu warm-up)\n\n",
      hosts, rounds, kWarmRounds);
  std::printf("%6s %16s %16s %10s\n", "round", "xml bytes", "delta bytes",
              "reduction");

  std::uint64_t delta_prev = delta_before;
  std::uint64_t xml_prev = xml_before;
  bool identical = true;
  for (std::size_t r = 0; r < rounds; ++r) {
    delta_bed.run_round();
    xml_bed.run_round();
    for (const gmetad::TestbedNodeSpec& node : delta_bed.spec().nodes) {
      if (delta_bed.node(node.name).dump_xml() !=
          xml_bed.node(node.name).dump_xml()) {
        identical = false;
        std::fprintf(stderr, "FAIL: %s documents diverged at round %zu\n",
                     node.name.c_str(), r);
      }
    }
    const std::uint64_t delta_now = tree_bytes(delta_bed);
    const std::uint64_t xml_now = tree_bytes(xml_bed);
    const std::uint64_t d = delta_now - delta_prev;
    const std::uint64_t x = xml_now - xml_prev;
    std::printf("%6zu %16llu %16llu %9.1fx\n", r + 1,
                static_cast<unsigned long long>(x),
                static_cast<unsigned long long>(d),
                d > 0 ? static_cast<double>(x) / static_cast<double>(d) : 0.0);
    delta_prev = delta_now;
    xml_prev = xml_now;
  }

  const std::uint64_t delta_total = delta_prev - delta_before;
  const std::uint64_t xml_total = xml_prev - xml_before;
  const double reduction =
      delta_total > 0
          ? static_cast<double>(xml_total) / static_cast<double>(delta_total)
          : 0.0;
  const double denom = static_cast<double>(rounds);
  for (EdgeBytes& e : delta_edges) {
    e.per_poll =
        static_cast<double>(edge_total(delta_bed, e) - e.before) / denom;
  }
  for (EdgeBytes& e : xml_edges) {
    e.per_poll = static_cast<double>(edge_total(xml_bed, e) - e.before) / denom;
  }
  double gmond_total = 0;
  for (EdgeBytes& e : gmond_edges) {
    gmond_total += static_cast<double>(edge_total(delta_bed, e) - e.before);
  }
  const double gmond_per_host =
      gmond_total /
      (denom * static_cast<double>(gmond_edges.size() * hosts));

  // Modeled staleness over a constrained WAN link (measured bytes, modeled
  // latency): per level, half a poll interval of sampling delay plus the
  // transfer time of that link's per-poll payload.
  const double link_bytes_per_s = link_kbps * 1000.0 / 8.0;
  double delta_staleness = 0;
  double xml_staleness = 0;
  for (std::size_t i = 0; i < delta_edges.size(); ++i) {
    delta_staleness += poll_s / 2 + delta_edges[i].per_poll / link_bytes_per_s;
    xml_staleness += poll_s / 2 + xml_edges[i].per_poll / link_bytes_per_s;
  }

  std::printf(
      "\nsteady state: xml %llu B/round, delta %llu B/round, %.1fx reduction "
      "(floor %.0fx)\n",
      static_cast<unsigned long long>(xml_total / rounds),
      static_cast<unsigned long long>(delta_total / rounds), reduction,
      kReductionFloor);
  bool edges_ok = true;
  std::printf("chain edges, bytes per poll (ceiling %.0f B per delta):\n",
              kEdgeCeiling);
  for (std::size_t i = 0; i < delta_edges.size(); ++i) {
    const EdgeBytes& e = delta_edges[i];
    std::printf("  %s<-%-10s xml %10.1f  delta %8.1f\n", e.parent.c_str(),
                e.child.c_str(), xml_edges[i].per_poll, e.per_poll);
    if (e.per_poll > kEdgeCeiling) edges_ok = false;
  }
  const double gmond_ceiling =
      kGmondHostCeiling + kGmondPollAllowance / static_cast<double>(hosts);
  std::printf("  %zu gmond->gmetad edges: delta %.1f B per host per poll "
              "(ceiling %.1f B)\n",
              gmond_edges.size(), gmond_per_host, gmond_ceiling);
  const bool gmond_ok = gmond_per_host <= gmond_ceiling;
  std::printf(
      "modeled root staleness over %.0f kbit/s links (physics->ucsd->root): "
      "xml %.1f s, delta %.1f s\n",
      link_kbps, xml_staleness, delta_staleness);
  std::printf("every node's document byte-identical across modes: %s\n",
              identical ? "yes" : "NO");

  char date[32];
  const std::time_t wall_now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&wall_now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);

  std::string json;
  xml::JsonWriter w(json);
  w.begin_object();
  w.key("name");
  w.value("federation");
  w.key("date");
  w.value(date);
  w.key("config");
  w.begin_object();
  w.key("hosts_per_cluster");
  w.value(static_cast<std::uint64_t>(hosts));
  w.key("rounds");
  w.value(static_cast<std::uint64_t>(rounds));
  w.key("warm_rounds");
  w.value(static_cast<std::uint64_t>(kWarmRounds));
  w.key("link_kbps");
  w.value(link_kbps);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  w.key("xml_bytes_per_round");
  w.value(static_cast<double>(xml_total) / denom);
  w.key("delta_bytes_per_round");
  w.value(static_cast<double>(delta_total) / denom);
  w.key("reduction");
  w.value(reduction);
  w.key("edges");
  w.begin_array();
  for (std::size_t i = 0; i < delta_edges.size(); ++i) {
    w.begin_object();
    w.key("edge");
    w.value(delta_edges[i].parent + "<-" + delta_edges[i].child);
    w.key("xml_bytes_per_poll");
    w.value(xml_edges[i].per_poll);
    w.key("delta_bytes_per_poll");
    w.value(delta_edges[i].per_poll);
    w.end_object();
  }
  w.end_array();
  w.key("gmond_delta_bytes_per_host_per_poll");
  w.value(gmond_per_host);
  w.key("staleness_modeled_s");
  w.begin_object();
  w.key("xml");
  w.value(xml_staleness);
  w.key("delta");
  w.value(delta_staleness);
  w.key("modeled");
  w.value(true);
  w.end_object();
  w.key("nodes_identical");
  w.value(identical);
  w.end_object();
  w.end_object();
  json += '\n';

  const char* out_path = "BENCH_federation.json";
  if (FILE* out = std::fopen(out_path, "w")) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  if (reduction < kReductionFloor) {
    std::fprintf(stderr, "FAIL: %.1fx reduction is below the %.0fx floor\n",
                 reduction, kReductionFloor);
    return 1;
  }
  if (!edges_ok) {
    std::fprintf(stderr, "FAIL: a chain edge carries more than %.0f B per "
                 "delta poll\n", kEdgeCeiling);
    return 1;
  }
  if (!gmond_ok) {
    std::fprintf(stderr, "FAIL: the gmond->gmetad edges carry more than "
                 "%.1f B per host per delta poll\n", gmond_ceiling);
    return 1;
  }
  return identical ? 0 : 1;
}
