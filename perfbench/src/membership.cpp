// The membership workload: a gossip group on the in-memory fabric.
//
// Every agent dials through its own BoundTransport and serves inbound
// exchanges in service mode, so the group advances single-threaded and
// deterministically.  Each Agent::tick and each inbound exchange runs in a
// Scope.  The group joins through one seed, runs a steady window (the
// measured rounds), then one member crashes silently and the run counts
// rounds until every live member has convicted it.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gossip/agent.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ganglia::Result;
namespace gossip = ganglia::gossip;
namespace net = ganglia::net;

constexpr ganglia::TimeUs kIntervalUs = ganglia::kMicrosPerSecond;
constexpr int kMaxJoinRounds = 200;
constexpr int kMaxDetectRounds = 100;

std::string name_of(std::size_t i) { return "gm" + std::to_string(i); }
std::string address_of(std::size_t i) { return name_of(i) + ":8654"; }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Group {
 public:
  Group(std::size_t members, std::uint64_t seed, Tracer& tracer)
      : tracer_(tracer), alive_(members, true) {
    for (std::size_t i = 0; i < members; ++i) {
      bound_.push_back(
          std::make_unique<net::BoundTransport>(fabric_, address_of(i)));
      gossip::AgentOptions opts;
      opts.id = name_of(i);
      opts.address = address_of(i);
      if (i != 0) opts.seeds = {address_of(0)};  // everyone joins via gm0
      opts.interval_us = kIntervalUs;
      opts.fanout = 3;
      opts.t_fail_us = 5 * kIntervalUs;
      opts.t_cleanup_us = 5 * kIntervalUs;
      opts.connect_timeout_us = kIntervalUs;
      opts.rng_seed = mix(seed * 1024 + i);
      opts.delta = true;
      // The metadata block a federated gmetad advertises.
      opts.meta["source"] = name_of(i);
      opts.meta["xml"] = name_of(i) + ":8651";
      opts.meta["fed"] = name_of(i) + ":8655";
      opts.meta["authority"] = "gmetad://" + name_of(i) + ".example:8651/";
      agents_.push_back(
          std::make_unique<gossip::Agent>(std::move(opts), *bound_[i], clock_));
      fabric_.register_service(
          address_of(i),
          [this, service = agents_[i]->service()](
              std::string_view request) -> Result<std::string> {
            Scope scope(tracer_, "gossip.serve", "", round_);
            Result<std::string> response = service(request);
            scope.set_bytes(request.size() +
                            (response.ok() ? response->size() : 0));
            return response;
          });
    }
  }

  std::size_t size() const { return agents_.size(); }
  gossip::Agent& agent(std::size_t i) { return *agents_[i]; }

  /// One gossip interval: every live agent ticks once, in index order.
  std::int64_t run_round() {
    ++round_;
    clock_.advance_us(kIntervalUs);
    Scope round(tracer_, "round", "", round_);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (!alive_[i]) continue;
      Scope tick(tracer_, "gossip.tick", "", round_);
      agents_[i]->tick();
    }
    round.finish();
    return round.wall_ns();
  }

  /// Silent stop failure: the address refuses every connect from now on.
  void crash(std::size_t i) {
    alive_[i] = false;
    fabric_.unregister_service(address_of(i));
  }

  bool joined() const {
    for (const auto& agent : agents_) {
      if (agent->alive_count() != agents_.size()) return false;
    }
    return true;
  }

  /// Does live member `i` hold `j` SUSPECT or worse (or not at all)?
  bool convicts(std::size_t i, std::size_t j) const {
    const auto entry = agents_[i]->member(name_of(j));
    return !entry || entry->state != gossip::MemberState::alive;
  }

  bool is_alive(std::size_t i) const { return alive_[i]; }

  /// Payload bytes over every exchange so far (both directions).
  std::uint64_t wire_bytes() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      const net::AddressStats s = fabric_.stats(address_of(i));
      total += s.bytes_served + s.bytes_received;
    }
    return total;
  }

  gossip::AgentStats total_stats() const {
    gossip::AgentStats sum;
    for (const auto& agent : agents_) {
      const gossip::AgentStats s = agent->stats();
      sum.sends += s.sends;
      sum.send_failures += s.send_failures;
      sum.digest_rows_sent += s.digest_rows_sent;
      sum.full_resyncs += s.full_resyncs;
    }
    return sum;
  }

 private:
  Tracer& tracer_;
  std::uint64_t round_ = 0;
  ganglia::sim::SimClock clock_;
  net::InMemTransport fabric_;
  std::vector<std::unique_ptr<net::BoundTransport>> bound_;
  std::vector<std::unique_ptr<gossip::Agent>> agents_;
  std::vector<bool> alive_;
};

std::size_t measured_rounds(const Options& options) {
  return share_of(options, options.smoke ? 6 : std::max(20, options.seconds * 6));
}

}  // namespace

RunResult run_membership(const Options& options) {
  RunResult r;
  Tracer tracer;
  const std::size_t members = options.smoke ? 16 : 128;
  const std::size_t rounds = measured_rounds(options);

  // Set up: build the group and let it join through gm0.
  const std::int64_t setup_start = wall_ns();
  auto group = std::make_unique<Group>(members, options.seed, tracer);
  int join_rounds = 0;
  while (!group->joined() && join_rounds < kMaxJoinRounds) {
    group->run_round();
    ++join_rounds;
  }
  const double setup_s = static_cast<double>(wall_ns() - setup_start) * 1e-9;
  r.check(group->joined(),
          "group did not join in " + std::to_string(kMaxJoinRounds) + " rounds");
  r.note("join took " + std::to_string(join_rounds) + " rounds");

  // Steady window: the measured rounds.
  const gossip::AgentStats before = group->total_stats();
  const std::uint64_t bytes_before = group->wire_bytes();
  Samples round_ms, traced_round_ms;
  const std::int64_t cpu_before = process_cpu_ns();
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool traced = traced_round(options.trace, i);
    tracer.set_recording(traced);
    const double ms = ns_to_ms(group->run_round());
    (traced ? traced_round_ms : round_ms).add(ms);
  }
  const std::int64_t cpu_ns = process_cpu_ns() - cpu_before;
  tracer.set_recording(false);
  const gossip::AgentStats after = group->total_stats();
  const std::uint64_t bytes = group->wire_bytes() - bytes_before;
  const double per_round = 1.0 / static_cast<double>(rounds);

  // Exchanges are the operations of this workload.
  r.attempted += after.sends - before.sends;
  r.failed += after.send_failures - before.send_failures;
  if (after.send_failures != before.send_failures) {
    r.failures.push_back(
        std::to_string(after.send_failures - before.send_failures) +
        " gossip exchanges failed in the steady window");
  }
  // Before the crash, every member is ALIVE in every table.
  for (std::size_t i = 0; i < group->size(); ++i) {
    const auto table = group->agent(i).members();
    const bool all_alive =
        table.size() == group->size() &&
        std::all_of(table.begin(), table.end(), [](const auto& m) {
          return m.state == gossip::MemberState::alive;
        });
    r.check(all_alive, name_of(i) + " does not hold every member ALIVE");
  }

  // One silent crash; count rounds until every live member convicts it.
  const std::size_t victim = 1 + mix(options.seed) % (group->size() - 1);
  group->crash(victim);
  const auto all_convicted = [&] {
    for (std::size_t i = 0; i < group->size(); ++i) {
      if (group->is_alive(i) && !group->convicts(i, victim)) return false;
    }
    return true;
  };
  int detect_rounds = 0;
  while (!all_convicted() && detect_rounds < kMaxDetectRounds) {
    group->run_round();
    ++detect_rounds;
  }
  r.check(all_convicted(), "crash of " + name_of(victim) + " not detected");
  std::size_t false_suspicions = 0;
  for (std::size_t i = 0; i < group->size(); ++i) {
    for (std::size_t j = 0; j < group->size(); ++j) {
      if (j != i && j != victim && i != victim && group->convicts(i, j)) {
        ++false_suspicions;
      }
    }
  }
  r.check(false_suspicions == 0, std::to_string(false_suspicions) +
                                     " live members suspected after the crash");
  r.note("crash victim " + name_of(victim) + " of " +
         std::to_string(group->size()) + " members");

  const Samples& rounds_ms = options.trace ? traced_round_ms : round_ms;
  r.set("setup_s", setup_s, "s");
  r.samples["round_ms"] = rounds_ms;
  r.set("round_ms_p50", rounds_ms.median(), "ms");
  r.set("round_ms_p90", rounds_ms.percentile(90), "ms");
  r.set("cpu_ms_per_round", ns_to_ms(cpu_ns) * per_round, "ms");
  r.set("bytes_per_round", static_cast<double>(bytes) * per_round, "B");
  r.set("detect_rounds", detect_rounds, "rounds");
  r.note("samples: " + std::to_string(rounds_ms.size()) + " rounds");

  r.set("gossip.rows_per_round",
        static_cast<double>(after.digest_rows_sent - before.digest_rows_sent) *
            per_round,
        "count");
  r.set("gossip.exchanges_per_round",
        static_cast<double>(after.sends - before.sends) * per_round, "count");
  r.set("gossip.resyncs",
        static_cast<double>(after.full_resyncs - before.full_resyncs), "count");
  if (options.trace) {
    // Spans stop at the crash: only the steady window's traced rounds.
    const std::vector<Span> spans = tracer.spans();
    Samples tick_ms;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == "gossip.tick") tick_ms.add(s.ms());
    }
    r.set("gossip.tick.ms_p50", tick_ms.median(), "ms");
    r.set("gossip.tick.ms_p99", tick_ms.percentile(99), "ms");
    report_trace_coverage(spans, traced_round_ms, round_ms, r);
    if (!options.trace_path.empty() && !tracer.write(options.trace_path)) {
      r.check(false, "cannot write " + options.trace_path);
    }
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace perfbench
