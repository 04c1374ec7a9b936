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
//     per member, each naming its sender by id and carrying no row);
//   * failure detection — rounds from a silent crash until every live
//     member holds the dead one SUSPECT or worse, i.e. the completeness
//     latency of probing plus dissemination.
//
// It exits 1 when any size fails to converge or to detect its crash, or
// when steady bytes per member per round exceed the ceiling it prints.
// Writes machine-readable results to BENCH_gossip.json.
//
// Loss sweep: `--loss-sweep FIRST LAST` runs the scenario of
// GossipDeltaSim.CompletenessHoldsUnderMessageLoss (tests/gossip_test.cpp)
// once per loss seed s in [FIRST, LAST] — 10 members under 10% message
// loss converge, members a = 1 + s mod 9 and b = 1 + (7s + 3) mod 9 crash
// (b = 1 + a mod 9 when the two coincide), every live member must convict
// both within 14 rounds, the group must reconverge, and once loss stops
// every live member must hold an identical table within 10 rounds.  It
// prints each run that breaks one of those, then the totals, and exits 1
// when any run detects late (or never) or fails to (re)converge; unequal
// views are counted, not failed.
//
// Usage: gossip_convergence [size...]        (default: 64 256 1024)
//        gossip_convergence --loss-sweep FIRST LAST

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "gossip_sim_util.hpp"
#include "http/json.hpp"

using namespace ganglia;

namespace {

/// Steady-state payload bytes per member per round above which a run
/// fails: a settled message names its sender by id and carries no row.
constexpr double kSteadyCeiling = 60.0;

struct ModeResult {
  const char* mode = "direct";
  std::size_t members = 0;
  int join_rounds = -1;
  double join_bytes_per_member_round = 0;
  double steady_bytes_per_member_round = 0;
  double steady_rows_per_member_round = 0;  ///< rows piggybacked
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

  // Steady state: converged table; no row changes, so every message names
  // its sender by id and carries no row.
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

/// What one loss-sweep run found.
struct SweepRun {
  bool converged = false;    ///< before the crash, within 40 rounds
  int detect_rounds = -1;    ///< -1: not within 30 rounds
  bool reconverged = false;  ///< after the crash, within 30 rounds
  bool same_views = false;   ///< 10 loss-free rounds later
};

SweepRun run_loss_seed(std::uint64_t seed, std::size_t a, std::size_t b) {
  gossip::GossipSimOptions options;
  options.members = 10;
  options.fanout = 3;
  options.realistic_meta = true;
  gossip::GossipSim sim(options);
  sim.fabric.set_loss(0.10, seed);
  SweepRun run;
  run.converged = sim.run_until([&] { return sim.converged(); }, 40) >= 0;
  if (!run.converged) return run;
  sim.crash(a);
  sim.crash(b);
  run.detect_rounds = sim.run_until(
      [&] {
        for (std::size_t i = 0; i < sim.size(); ++i) {
          if (sim.is_alive(i) &&
              (!sim.sees_failed(i, a) || !sim.sees_failed(i, b))) {
            return false;
          }
        }
        return true;
      },
      30);
  if (run.detect_rounds < 0) return run;
  run.reconverged = sim.run_until([&] { return sim.converged(); }, 30) >= 0;
  sim.fabric.set_loss(0.0);
  for (int i = 0; i < 10; ++i) sim.run_round();
  run.same_views = true;
  std::size_t first = sim.size();
  for (std::size_t i = 0; i < sim.size(); ++i) {
    if (!sim.is_alive(i)) continue;
    if (first == sim.size()) {
      first = i;
    } else if (!sim.same_view(first, i)) {
      run.same_views = false;
    }
  }
  return run;
}

int loss_sweep(std::uint64_t first, std::uint64_t last) {
  constexpr int kDetectBound = 14;
  std::printf(
      "gossip loss sweep: 10 members, 10%% loss, two crashes, seeds "
      "%llu-%llu\n",
      static_cast<unsigned long long>(first),
      static_cast<unsigned long long>(last));
  std::uint64_t unequal = 0, late = 0, unconverged = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const std::size_t a = 1 + seed % 9;
    std::size_t b = 1 + (7 * seed + 3) % 9;
    if (b == a) b = 1 + a % 9;
    const SweepRun run = run_loss_seed(seed, a, b);
    const char* what = nullptr;
    if (!run.converged) {
      what = "never converged before the crashes";
      ++unconverged;
    } else if (run.detect_rounds < 0 || run.detect_rounds > kDetectBound) {
      what = run.detect_rounds < 0 ? "crash undetected" : "late detection";
      ++late;
    } else if (!run.reconverged) {
      what = "never reconverged";
      ++unconverged;
    } else if (!run.same_views) {
      what = "unequal views";
      ++unequal;
    }
    if (what != nullptr) {
      std::printf("  seed %llu (crash gm%zu, gm%zu): %s, detect %d rounds\n",
                  static_cast<unsigned long long>(seed), a, b, what,
                  run.detect_rounds);
    }
  }
  std::printf(
      "%llu runs: %llu unequal views, %llu detections over %d rounds, %llu "
      "failures to (re)converge\n",
      static_cast<unsigned long long>(last - first + 1),
      static_cast<unsigned long long>(unequal),
      static_cast<unsigned long long>(late), kDetectBound,
      static_cast<unsigned long long>(unconverged));
  return late == 0 && unconverged == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--loss-sweep") {
    const auto seed_arg = [](const char* text, std::uint64_t& seed) {
      char* end = nullptr;
      seed = std::strtoull(text, &end, 10);
      return *text != '\0' && *end == '\0' && seed > 0;
    };
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    if (argc != 4 || !seed_arg(argv[2], first) || !seed_arg(argv[3], last) ||
        last < first) {
      std::fprintf(stderr, "usage: %s --loss-sweep FIRST LAST\n", argv[0]);
      return 2;
    }
    return loss_sweep(first, last);
  }
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
      "(interval 1 s, fanout 3, t_fail 5 s, t_cleanup 5 s, realistic meta;\n"
      " steady ceiling %.0f B per member per round)\n\n"
      "%8s %10s %10s %14s %16s %12s %10s\n",
      kSteadyCeiling, "members", "mode", "join(rds)", "join(B/m/rd)",
      "steady(B/m/rd)", "detect(rds)", "syncs");

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
  for (const ModeResult& r : results) {
    if (r.steady_bytes_per_member_round > kSteadyCeiling) {
      std::fprintf(stderr,
                   "FAIL: %zu members (%s) steady %.1f B per member per round "
                   "is above the %.0f B ceiling\n",
                   r.members, r.mode, r.steady_bytes_per_member_round,
                   kSteadyCeiling);
      return 1;
    }
  }
  return 0;
}
