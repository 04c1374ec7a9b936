// In-memory transport fabric: deterministic networking for tests/benches.
//
// Two modes per address:
//
//  * Service mode (register_service): connects return a synchronous
//    request/response stream.  The service callback runs inside the
//    client's first read(), so a whole monitoring tree — pseudo-gmonds and
//    six gmetads — can be driven single-threaded and deterministically.
//    This mirrors the paper's dump/interactive protocol, where a server's
//    entire response is a function of the (possibly empty) query line.
//
//  * Listener mode (Transport::listen): connects queue one end of a duplex
//    pipe on the listener, for a net::Reactor to accept through the
//    readiness shim; the client keeps the other end and reads with
//    blocking timeouts — daemon tests without real sockets.
//
// Failure injection models the paper's remote-failure taxonomy: refused
// connections (stop failure), connect timeouts (partition), and mid-stream
// truncation (intermittent failure).  Per-address byte counters support the
// bandwidth accounting experiments.
//
// Two fabric-wide fault models extend the per-address policies:
//
//  * Partition groups: every address belongs to a group (default 0), and a
//    connect dialed *as* a local address (connect_as / BoundTransport) only
//    succeeds when both endpoints share a group — a symmetric network
//    partition expressed with N per-address assignments instead of N²
//    pairwise rules.  Plain connect() dials from the default group.
//
//  * Per-receiver loss: every connect independently fails with probability
//    `loss_rate` (deterministic xoshiro draws), modelling lossy datagram
//    exchange for the gossip membership experiments.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/rng.hpp"
#include "net/transport.hpp"

namespace ganglia::net {

/// What should happen to connections dialed to an address.
struct FailurePolicy {
  enum class Kind {
    none,      ///< behave normally
    refuse,    ///< Errc::refused at connect time (process stopped)
    timeout,   ///< Errc::timeout at connect time (partition / black hole)
    truncate,  ///< serve `truncate_after` bytes then Errc::closed
  };
  Kind kind = Kind::none;
  std::size_t truncate_after = 0;
  /// Apply to this many connects, then auto-clear; -1 = until cleared.
  int remaining = -1;
};

/// Traffic counters per address.
struct AddressStats {
  std::uint64_t connects = 0;
  std::uint64_t failed_connects = 0;
  std::uint64_t bytes_served = 0;    ///< server->client payload bytes
  std::uint64_t bytes_received = 0;  ///< client->server payload bytes
};

class InMemTransport final : public Transport {
 public:
  InMemTransport() = default;

  // -- Transport ----------------------------------------------------------
  Result<std::unique_ptr<Listener>> listen(std::string_view address) override;
  Result<std::unique_ptr<Stream>> connect(std::string_view address,
                                          TimeUs timeout) override;

  /// connect() with a dialer identity: the partition-group check compares
  /// `local_address` against the target (BoundTransport routes through
  /// this).  An empty local address dials from the default group 0.
  Result<std::unique_ptr<Stream>> connect_as(std::string_view local_address,
                                             std::string_view address,
                                             TimeUs timeout);

  // -- Service mode -------------------------------------------------------
  /// Register a synchronous service.  Replaces any existing registration.
  void register_service(std::string address, ServiceFn service);
  void unregister_service(const std::string& address);
  bool has_service(const std::string& address) const;

  // -- Failure injection --------------------------------------------------
  void set_failure(const std::string& address, FailurePolicy policy);
  void clear_failure(const std::string& address);

  /// Assign `address` to a partition group (0 = the default group every
  /// unassigned address lives in).  connect_as() between different groups
  /// fails with Errc::timeout — a black hole, exactly how a wide-area
  /// partition presents.
  void set_group(const std::string& address, int group);
  int group(const std::string& address) const;

  /// Fabric-wide per-connect loss probability in [0, 1); each connect
  /// draws independently (per-receiver loss).  `seed` resets the
  /// deterministic stream.
  void set_loss(double rate, std::uint64_t seed = 0x6c6f7373ULL);

  // -- Accounting ---------------------------------------------------------
  AddressStats stats(const std::string& address) const;
  void reset_stats();

 private:
  struct ListenerState;
  class InMemListener;
  class ServiceStream;
  class PipeStream;

  /// Consume one application of the failure policy for an address.
  /// Returns the policy in effect for this connect (Kind::none if clear).
  FailurePolicy apply_failure(const std::string& address);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ServiceFn> services_;
  std::unordered_map<std::string, FailurePolicy> failures_;
  std::unordered_map<std::string, AddressStats> stats_;
  std::unordered_map<std::string, std::shared_ptr<ListenerState>> listeners_;
  std::unordered_map<std::string, int> groups_;
  double loss_rate_ = 0.0;
  Rng loss_rng_{0x6c6f7373ULL};
  std::uint16_t next_ephemeral_ = 40000;
};

/// A Transport view of the in-memory fabric dialing *as* a fixed local
/// address, so partition groups apply symmetrically.  Each simulated node
/// (a gossiping gmetad, say) gets its own BoundTransport over the shared
/// fabric; listen() passes through unchanged.
class BoundTransport final : public Transport {
 public:
  BoundTransport(InMemTransport& fabric, std::string local_address)
      : fabric_(fabric), local_address_(std::move(local_address)) {}

  Result<std::unique_ptr<Listener>> listen(std::string_view address) override {
    return fabric_.listen(address);
  }
  Result<std::unique_ptr<Stream>> connect(std::string_view address,
                                          TimeUs timeout) override {
    return fabric_.connect_as(local_address_, address, timeout);
  }

  const std::string& local_address() const noexcept { return local_address_; }

 private:
  InMemTransport& fabric_;
  std::string local_address_;
};

}  // namespace ganglia::net
