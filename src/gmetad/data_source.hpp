// Data source with failover.
//
// "The wide-area Gmeta uses [redundant gmon state] to automatically
// fail-over when a cluster node malfunctions, preventing a node stop
// failure from disrupting its monitoring activities.  To handle
// intermittent failures, Gmeta retries the failed node periodically."
// (paper §1)
//
// fetch() is a two-tier pipeline.  When the source has a federation
// address (configured `fed=host:port` or discovered via gossip metadata),
// the poll first runs over the binary delta protocol: a persistent
// fed::Session that transfers only changed rows of the view the poller
// keeps (an N-level parent asks a child gmetad for its grid summary only)
// and resyncs from full XML automatically on loss, restart, or
// corruption.  Any delta-path failure falls straight through to the
// legacy path — the preferred XML dump address first, rotating through
// the remaining candidates on failure — and starts a resync backoff so a
// dead delta port is not re-dialed on every poll; delta_error() keeps the
// reason until the delta path succeeds again.  A legacy success promotes
// the serving address to preferred; total failure leaves the source marked
// unreachable and the next poll round retries from the top — failures
// never cause permanent fissures in the tree.
//
// Concurrency: the poll pool runs at most one fetch() per source at a time
// (the scheduler never dispatches a source that is still in flight), but
// the health accessors are read from other threads — daemon status pages,
// tests, examples — while a fetch is running, so the scalar health fields
// are atomics and the error strings sit behind their own mutex.  The
// delta session is additionally shared with the heartbeat tick (scheduler
// thread), so it hides behind session_mutex_; heartbeats try-lock and
// simply skip a source whose session is busy polling.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/cpu_timer.hpp"
#include "fed/session.hpp"
#include "gmetad/config.hpp"
#include "net/transport.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::gmetad {

class DataSource {
 public:
  explicit DataSource(DataSourceConfig config) : config_(std::move(config)) {}

  /// One poll's worth of data: either a parsed report (delta path) or the
  /// raw XML body (legacy dump path, parsed by the caller).
  struct Fetched {
    std::string body;                    ///< raw XML (legacy path only)
    std::optional<Report> report;        ///< parsed document (delta path)
    std::size_t bytes = 0;               ///< wire bytes this poll moved
    bool via_delta = false;              ///< answered incrementally
    bool resync = false;                 ///< delta session did a full resync
  };

  /// Download one report, delta session first, failing over across the
  /// candidate XML addresses otherwise.  The delta session asks for
  /// `view`; the XML dump always carries the whole tree.  On exhaustion
  /// returns Errc::exhausted carrying the last error detail.  Not
  /// reentrant: one fetch per source at a time (the poll scheduler
  /// guarantees this).  `meter`, when set, is charged for parse/apply CPU,
  /// never I/O waits.
  Result<Fetched> fetch(net::Transport& transport, TimeUs timeout,
                        std::int64_t now_s,
                        fed::View view = fed::View::tree,
                        CpuMeter* meter = nullptr);

  /// Keep-alive tick for the delta session: pings the publisher when the
  /// session is live and idle.  Skips silently when a poll is in flight.
  void heartbeat(net::Transport& transport, TimeUs timeout);

  /// Offer one membership digest exchange a ride on the live delta
  /// session (gossip::Agent::Carrier semantics): nullopt when there is no
  /// live session or a poll holds it — the agent then dials gossip
  /// directly — otherwise the exchange's result.
  std::optional<Result<std::string>> piggyback_digest(
      net::Transport& transport, TimeUs timeout, std::string_view payload);

  const DataSourceConfig& config() const noexcept { return config_; }
  const std::string& name() const noexcept { return config_.name; }
  std::int64_t poll_interval_s() const noexcept {
    return config_.poll_interval_s;
  }

  /// Swap the federation endpoint (gossip-discovered topology).  Resets
  /// the session when the address actually changes.
  void set_federation_address(const std::string& address);
  std::string federation_address() const {
    std::lock_guard lock(session_mutex_);
    return config_.federation_address;
  }

  // -- health introspection (safe to call while a fetch is in flight) ------
  bool reachable() const noexcept { return reachable_.load(std::memory_order_relaxed); }
  std::size_t preferred_index() const noexcept {
    return preferred_.load(std::memory_order_relaxed);
  }
  const std::string& preferred_address() const {
    return config_.addresses[preferred_index()];
  }
  std::uint32_t consecutive_failures() const noexcept {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  std::int64_t last_success_s() const noexcept {
    return last_success_s_.load(std::memory_order_relaxed);
  }
  std::uint64_t failovers() const noexcept {
    return failovers_.load(std::memory_order_relaxed);
  }
  std::string last_error() const {
    std::lock_guard lock(last_error_mutex_);
    return last_error_;
  }
  /// Why the delta path last failed, kept while the XML dump carries the
  /// polls; cleared by the next delta success.
  std::string delta_error() const {
    std::lock_guard lock(last_error_mutex_);
    return delta_error_;
  }

  // -- delta federation introspection --------------------------------------
  std::uint64_t delta_polls() const noexcept {
    return delta_polls_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_polls() const noexcept {
    return full_polls_.load(std::memory_order_relaxed);
  }
  std::uint64_t delta_resyncs() const noexcept {
    return delta_resyncs_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_delta() const noexcept {
    return bytes_delta_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_full() const noexcept {
    return bytes_full_.load(std::memory_order_relaxed);
  }
  /// Conservative estimate of bytes the delta path avoided transferring:
  /// Σ over delta polls of (last full-size observed − delta bytes).
  std::uint64_t bytes_saved() const noexcept {
    return bytes_saved_.load(std::memory_order_relaxed);
  }
  /// "xml" (no delta endpoint), "backoff", "delta" (live session), or
  /// "sync" (endpoint known, session not yet established).
  std::string session_mode(std::int64_t now_s) const;
  /// Membership digest exchanges carried on the poll stream.
  std::uint64_t piggyback_digests() const noexcept {
    return piggyback_digests_.load(std::memory_order_relaxed);
  }

 private:
  Result<Fetched> fetch_delta(net::Transport& transport, TimeUs timeout,
                              std::int64_t now_s, fed::View view,
                              CpuMeter* meter);

  DataSourceConfig config_;
  std::atomic<std::size_t> preferred_{0};
  std::atomic<bool> reachable_{true};  ///< optimistic until the first poll
  std::atomic<std::uint32_t> consecutive_failures_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::int64_t> last_success_s_{0};
  mutable std::mutex last_error_mutex_;
  std::string last_error_;
  std::string delta_error_;

  mutable std::mutex session_mutex_;
  std::unique_ptr<fed::Session> session_;
  std::atomic<std::int64_t> delta_retry_after_{0};
  std::atomic<bool> session_live_{false};
  std::atomic<std::uint64_t> delta_polls_{0};
  std::atomic<std::uint64_t> full_polls_{0};
  std::atomic<std::uint64_t> delta_resyncs_{0};
  std::atomic<std::uint64_t> bytes_delta_{0};
  std::atomic<std::uint64_t> bytes_full_{0};
  std::atomic<std::uint64_t> bytes_saved_{0};
  std::atomic<std::uint64_t> last_full_bytes_{0};
  std::atomic<std::uint64_t> piggyback_digests_{0};
};

}  // namespace ganglia::gmetad
