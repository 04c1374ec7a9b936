// Deterministic gossip simulation harness shared by tests and benches.
//
// N gossip agents live on one InMemTransport fabric, each dialing through
// its own BoundTransport (so partition groups apply symmetrically) and
// serving inbound exchanges in service mode (the handler runs inside the
// initiator's read — the whole group advances single-threaded and
// reproducibly).  One SimClock serves everybody; run_round() advances it by
// one gossip interval and ticks every live agent in index order.
//
// Faults: crash() unregisters the service (connects refuse — a stop
// failure), restart() brings the member back as a fresh process (new Agent,
// possibly on a new address), leave() announces the tombstone.
// Message loss and partitions are injected on the fabric itself
// (set_loss / FailureSchedule::add_partition).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gossip/agent.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::gossip {

struct GossipSimOptions {
  std::size_t members = 8;
  TimeUs interval_us = kMicrosPerSecond;  ///< 1 s rounds
  std::size_t fanout = 2;
  TimeUs t_fail_us = 5 * kMicrosPerSecond;
  TimeUs t_cleanup_us = 5 * kMicrosPerSecond;
  /// Route outbound messages through a simulated federation channel (a
  /// direct call into the target's message receiver, standing in for an
  /// open poll stream) instead of dialling gossip connections.
  bool piggyback = false;
  /// Per-message payload cap (0 = the agent default).
  std::size_t max_digest_bytes = 0;
  /// Give every member a production-shaped metadata block (source=, xml=,
  /// fed=, authority=), as a real federated gmetad advertises.
  bool realistic_meta = false;
};

class GossipSim {
 public:
  explicit GossipSim(GossipSimOptions options = {}) : options_(options) {
    for (std::size_t i = 0; i < options_.members; ++i) {
      addresses_.push_back(address_of(i));
      bound_.push_back(
          std::make_unique<net::BoundTransport>(fabric, address_of(i)));
      agents_.push_back(make_agent(i));
      alive_.push_back(true);
      fabric.register_service(address_of(i), agents_[i]->service());
    }
  }

  static std::string name_of(std::size_t i) {
    return "gm" + std::to_string(i);
  }
  static std::string address_of(std::size_t i) {
    return "gm" + std::to_string(i) + ":8654";
  }

  Agent& agent(std::size_t i) { return *agents_[i]; }
  bool is_alive(std::size_t i) const { return alive_[i]; }
  std::size_t size() const { return agents_.size(); }
  std::size_t live_count() const {
    std::size_t n = 0;
    for (const bool a : alive_) n += a ? 1 : 0;
    return n;
  }

  /// Stop failure: the process vanishes; its address refuses connects.
  void crash(std::size_t i) {
    alive_[i] = false;
    fabric.unregister_service(addresses_[i]);
  }

  /// Bring a crashed member back as a fresh process, by default on its old
  /// address.  Its incarnation starts at the restart time, so its new row
  /// outranks every copy of its previous life.
  void restart(std::size_t i, const std::string& address = "") {
    agents_[i].reset();
    addresses_[i] = address.empty() ? address_of(i) : address;
    bound_[i] = std::make_unique<net::BoundTransport>(fabric, addresses_[i]);
    agents_[i] = make_agent(i);
    fabric.register_service(addresses_[i], agents_[i]->service());
    alive_[i] = true;
  }

  /// Voluntary departure: announce the LEFT tombstone, then go dark.
  void leave(std::size_t i) {
    agents_[i]->leave();
    crash(i);
  }

  /// One gossip interval: advance time, tick every live agent.
  void run_round() {
    clock.advance_us(options_.interval_us);
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (alive_[i]) agents_[i]->tick();
    }
  }

  /// Run rounds until `done` holds (checked before each round).  Returns
  /// the number of rounds it took, or -1 if max_rounds passed without it.
  int run_until(const std::function<bool()>& done, int max_rounds) {
    for (int round = 0; round <= max_rounds; ++round) {
      if (done()) return round;
      run_round();
    }
    return done() ? max_rounds : -1;
  }

  /// Does live member `i` consider `j` ALIVE?
  bool sees_alive(std::size_t i, std::size_t j) const {
    const auto entry = agents_[i]->member(name_of(j));
    return entry && entry->state == MemberState::alive;
  }

  /// Does `i` consider `j` failed (SUSPECT/DEAD) or gone entirely?  This is
  /// the completeness predicate: a crashed member must eventually reach it
  /// at every live member.
  bool sees_failed(std::size_t i, std::size_t j) const {
    const auto entry = agents_[i]->member(name_of(j));
    return !entry || entry->state == MemberState::suspect ||
           entry->state == MemberState::dead ||
           entry->state == MemberState::left;
  }

  /// Every live member sees every live member ALIVE and every dead member
  /// failed — the group has converged on the true membership.
  bool converged() const {
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      if (!alive_[i]) continue;
      for (std::size_t j = 0; j < agents_.size(); ++j) {
        if (i == j) continue;
        if (alive_[j] ? !sees_alive(i, j) : !sees_failed(i, j)) return false;
      }
    }
    return true;
  }

  /// Total gossip payload bytes sent by all members (both directions of
  /// every exchange), for the bandwidth accounting bench.
  std::uint64_t total_bytes_out() const {
    std::uint64_t total = 0;
    for (const auto& agent : agents_) total += agent->stats().bytes_out;
    return total;
  }

  /// Member tables of `i` and `j` identical in every gossiped column —
  /// id, address, state, incarnation, metadata?  (Only the local timers
  /// may differ.)
  bool same_view(std::size_t i, std::size_t j) const {
    const auto a = agents_[i]->members();
    const auto b = agents_[j]->members();
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].id != b[k].id || a[k].address != b[k].address ||
          a[k].state != b[k].state || a[k].incarnation != b[k].incarnation ||
          a[k].meta != b[k].meta) {
        return false;
      }
    }
    return true;
  }

  sim::SimClock clock;
  net::InMemTransport fabric;

 private:
  std::unique_ptr<Agent> make_agent(std::size_t i) {
    AgentOptions opts;
    opts.id = name_of(i);
    opts.address = addresses_[i];
    if (i != 0) opts.seeds = {address_of(0)};  // everyone bootstraps at gm0
    opts.interval_us = options_.interval_us;
    opts.fanout = options_.fanout;
    opts.t_fail_us = options_.t_fail_us;
    opts.t_cleanup_us = options_.t_cleanup_us;
    opts.connect_timeout_us = options_.interval_us;
    opts.rng_seed = 0x9e3779b97f4a7c15ULL * (i + 1);
    if (options_.max_digest_bytes != 0) {
      opts.max_digest_bytes = options_.max_digest_bytes;
    }
    if (options_.realistic_meta) {
      opts.meta["source"] = name_of(i);
      opts.meta["xml"] = "gm" + std::to_string(i) + ":8651";
      opts.meta["fed"] = "gm" + std::to_string(i) + ":8655";
      opts.meta["authority"] = "gmetad://gm" + std::to_string(i) +
                               ".example:8651/";
    }
    auto agent = std::make_unique<Agent>(std::move(opts), *bound_[i], clock);
    if (options_.piggyback) {
      // The stand-in federation channel: an exchange lands directly in the
      // target's message receiver, exactly what a live poll stream carries.
      // A crashed or partitioned target's channel reports broken (an
      // engaged error — a severed TCP stream), so the agent falls through
      // to a direct dial, which refuses/black-holes the same way.
      agent->set_carrier([this, i](const std::string& peer_address,
                                   const std::string& payload)
                             -> std::optional<Result<std::string>> {
        for (std::size_t j = 0; j < agents_.size(); ++j) {
          if (addresses_[j] != peer_address) continue;
          if (!alive_[j]) return Err(Errc::closed, "peer is down");
          if (fabric.group(addresses_[i]) != fabric.group(addresses_[j])) {
            return Err(Errc::timeout, "partitioned");
          }
          return agents_[j]->handle_digest_payload(payload);
        }
        return std::nullopt;
      });
    }
    return agent;
  }

  GossipSimOptions options_;
  std::vector<std::string> addresses_;  ///< current gossip address each
  std::vector<std::unique_ptr<net::BoundTransport>> bound_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<bool> alive_;
};

}  // namespace ganglia::gossip
