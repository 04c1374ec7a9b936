// Gossip membership scalability: convergence and bandwidth vs group size,
// across transport modes.
//
// The paper's federation is a static tree of data_source lines; the gossip
// membership layer replaces that with an epidemic protocol, so its costs
// must stay sane as the federation grows.  This bench runs the same
// deterministic harness the tests use (tests/gossip_sim_util.hpp — one
// SimClock, one in-memory fabric, service-mode exchanges) over increasing
// group sizes, once per transport mode:
//
//   * direct — SWIM messages dialled on the gossip port;
//   * piggyback — the same messages riding a carrier channel, as when
//     membership shares the federation poll stream.
//
// Every member advertises a production-shaped metadata block (source=,
// xml=, fed=, authority=), as a real federated gmetad does.  Per size and
// mode it reports:
//
//   * join convergence — rounds until every member knows every member,
//     starting from nothing but one seed address;
//   * steady-state bandwidth — gossip payload bytes per member per round
//     once the group has converged (a steady round is one ping and one ack
//     per member, each holding only its sender's own row);
//   * failure detection — rounds from a silent crash until every live
//     member holds the dead one SUSPECT or worse, i.e. the completeness
//     latency of probing plus dissemination.
//
// Writes machine-readable results to BENCH_gossip.json.
//
// Usage: gossip_convergence [size...]        (default: 64 256 1024)

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "gossip_sim_util.hpp"
#include "http/json.hpp"

using namespace ganglia;

namespace {

struct ModeResult {
  const char* mode = "direct";
  std::size_t members = 0;
  int join_rounds = -1;
  double join_bytes_per_member_round = 0;
  double steady_bytes_per_member_round = 0;
  double steady_rows_per_member_round = 0;  ///< rows beyond the senders' own
  int detect_rounds = -1;
  std::uint64_t syncs = 0;
  std::uint64_t piggyback_exchanges = 0;
};

ModeResult run_mode(std::size_t members, const char* mode) {
  gossip::GossipSimOptions options;
  options.members = members;
  options.fanout = 3;  // the shipped gossip_fanout default
  options.realistic_meta = true;
  options.piggyback = std::string(mode) == "piggyback";
  gossip::GossipSim sim(options);

  ModeResult result;
  result.mode = mode;
  result.members = members;

  const auto sum = [&](auto field) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < sim.size(); ++i) {
      total += field(sim.agent(i).stats());
    }
    return total;
  };

  // Join convergence: everyone bootstraps knowing only the seed.
  const auto everyone_knows_everyone = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (sim.agent(i).alive_count() != sim.size()) return false;
    }
    return true;
  };
  const int kJoinBound = 10 * static_cast<int>(members);
  result.join_rounds = sim.run_until(everyone_knows_everyone, kJoinBound);
  if (result.join_rounds < 0) return result;
  if (result.join_rounds > 0) {
    result.join_bytes_per_member_round =
        static_cast<double>(sim.total_bytes_out()) /
        (static_cast<double>(result.join_rounds) *
         static_cast<double>(members));
  }

  // Steady state: converged table; no row changes, so nothing but the
  // senders' own rows moves.
  constexpr int kSteadyRounds = 10;
  const std::uint64_t bytes_before = sim.total_bytes_out();
  const std::uint64_t rows_before =
      sum([](const gossip::AgentStats& s) { return s.digest_rows_sent; });
  for (int n = 0; n < kSteadyRounds; ++n) sim.run_round();
  const double denom =
      static_cast<double>(kSteadyRounds) * static_cast<double>(members);
  result.steady_bytes_per_member_round =
      static_cast<double>(sim.total_bytes_out() - bytes_before) / denom;
  result.steady_rows_per_member_round =
      static_cast<double>(
          sum([](const gossip::AgentStats& s) { return s.digest_rows_sent; }) -
          rows_before) /
      denom;

  // Silent crash in the middle of the id space; completeness latency is
  // rounds until every live member holds a SUSPECT-or-worse verdict.
  const std::size_t victim = members / 2;
  sim.crash(victim);
  const auto all_convicted = [&] {
    for (std::size_t i = 0; i < sim.size(); ++i) {
      if (i == victim) continue;
      if (!sim.sees_failed(i, victim)) return false;
    }
    return true;
  };
  result.detect_rounds = sim.run_until(all_convicted, kJoinBound);

  result.syncs =
      sum([](const gossip::AgentStats& s) { return s.full_resyncs; });
  result.piggyback_exchanges =
      sum([](const gossip::AgentStats& s) { return s.piggyback_exchanges; });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    const long n = std::strtol(argv[i], nullptr, 10);
    if (n <= 1) {
      std::fprintf(stderr, "usage: %s [size...]\n", argv[0]);
      return 2;
    }
    sizes.push_back(static_cast<std::size_t>(n));
  }
  if (sizes.empty()) sizes = {64, 256, 1024};

  static constexpr const char* kModes[] = {"direct", "piggyback"};

  std::printf(
      "gossip membership: convergence + bandwidth vs group size and mode\n"
      "(interval 1 s, fanout 3, t_fail 5 s, t_cleanup 5 s, realistic meta)\n\n"
      "%8s %10s %10s %14s %16s %12s %10s\n",
      "members", "mode", "join(rds)", "join(B/m/rd)", "steady(B/m/rd)",
      "detect(rds)", "syncs");

  std::vector<ModeResult> results;
  for (const std::size_t members : sizes) {
    for (const char* mode : kModes) {
      const ModeResult r = run_mode(members, mode);
      results.push_back(r);
      std::printf("%8zu %10s %10d %14.0f %16.0f %12d %10llu\n", r.members,
                  r.mode, r.join_rounds, r.join_bytes_per_member_round,
                  r.steady_bytes_per_member_round, r.detect_rounds,
                  static_cast<unsigned long long>(r.syncs));
      if (r.join_rounds < 0 || r.detect_rounds < 0) {
        std::fprintf(stderr, "group of %zu (%s) failed to converge\n",
                     members, mode);
        return 1;
      }
    }
  }

  char date[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);

  std::string json;
  http::JsonWriter w(json);
  w.begin_object();
  w.key("name");
  w.value("gossip_convergence");
  w.key("date");
  w.value(date);
  w.key("config");
  w.begin_object();
  w.key("interval_s");
  w.value(std::uint64_t{1});
  w.key("fanout");
  w.value(std::uint64_t{3});
  w.key("t_fail_s");
  w.value(std::uint64_t{5});
  w.key("t_cleanup_s");
  w.value(std::uint64_t{5});
  w.key("realistic_meta");
  w.value(true);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  w.key("runs");
  w.begin_array();
  for (const ModeResult& r : results) {
    w.begin_object();
    w.key("members");
    w.value(static_cast<std::uint64_t>(r.members));
    w.key("mode");
    w.value(r.mode);
    w.key("join_rounds");
    w.value(static_cast<std::int64_t>(r.join_rounds));
    w.key("join_bytes_per_member_per_round");
    w.value(r.join_bytes_per_member_round);
    w.key("steady_bytes_per_member_per_round");
    w.value(r.steady_bytes_per_member_round);
    w.key("steady_rows_per_member_per_round");
    w.value(r.steady_rows_per_member_round);
    w.key("detect_rounds");
    w.value(static_cast<std::int64_t>(r.detect_rounds));
    w.key("syncs");
    w.value(r.syncs);
    w.key("piggyback_exchanges");
    w.value(r.piggyback_exchanges);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  json += '\n';

  const char* out_path = "BENCH_gossip.json";
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
