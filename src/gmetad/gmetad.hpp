// Gmetad: the wide-area monitor node (the paper's contribution).
//
// One Gmetad instance is one hexagon in the paper's figure-2 tree.  It
// polls its data sources (gmon clusters and child gmetads) on the
// summarisation time scale, parses their XML off to the side, publishes
// immutable snapshots into the hash-table store, archives metrics into
// RRDs, and serves two endpoints: a dump port that reports the whole tree
// and an interactive port answering path queries (and JOIN messages).
//
// The instance can be driven two ways:
//  * deterministically — poll_once() per simulated 15 s round; tests and
//    the paper-figure benches use this with the in-memory transport;
//  * as a daemon — start()/stop() run the poll scheduler and one reactor
//    (net::ServiceServer) serving every port over any transport (the
//    examples run real TCP on loopback).
//
// Polling is a concurrent pipeline: a fixed PollPool (poll_threads wide)
// overlaps the blocking wide-area fetches, so a round's wall clock tracks
// the slowest source instead of the sum of all RTTs.  poll_once() fans a
// whole round out and waits on a latch; the daemon runs a due-time
// scheduler that dispatches each source when its own poll_interval_s
// elapses (never two in-flight polls of the same source).  Shared state is
// safe under that concurrency: the store publishes by atomic swap, the
// archiver is hash-sharded, the join registry locks internally, and the
// per-source health fields are atomics.
//
// Every unit of processing (parsing, summarising, archiving, and serving
// queries — including dump requests made *by a parent*) is charged to this
// node's CpuMeter, reproducing the per-gmeta %CPU measurements of the
// paper's figures 5 and 6.  Fetch wait time is not charged: it is network
// latency, and over the in-memory fabric the child being polled charges
// its own meter for producing the dump.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/cpu_timer.hpp"
#include "fed/publisher.hpp"
#include "gmetad/archiver.hpp"
#include "gmetad/config.hpp"
#include "gmetad/data_source.hpp"
#include "gmetad/join.hpp"
#include "gmetad/poll_pool.hpp"
#include "gmetad/query.hpp"
#include "gmetad/store.hpp"
#include "gossip/agent.hpp"
#include "gossip/failover.hpp"
#include "net/service_server.hpp"
#include "net/transport.hpp"

namespace ganglia::gmetad {

class Gmetad {
 public:
  Gmetad(GmetadConfig config, net::Transport& transport, Clock& clock);
  ~Gmetad();

  Gmetad(const Gmetad&) = delete;
  Gmetad& operator=(const Gmetad&) = delete;

  // -- deterministic driving ----------------------------------------------

  struct PollResult {
    std::string source;
    bool ok = false;
    std::size_t bytes = 0;
    std::string error;
  };

  /// Poll every data source once (fetch, parse, summarise, archive),
  /// overlapping sources across the poll pool.  Blocks until the whole
  /// round has completed; results are in source order regardless of which
  /// worker finished first.  Dynamic children that stopped joining are
  /// pruned first.
  std::vector<PollResult> poll_once();

  /// Width of the poll pipeline (resolved from config.poll_threads).
  std::size_t poll_threads() const noexcept { return pool_ ? pool_->size() : 1; }

  // -- reporting / queries --------------------------------------------------

  /// The dump-port document: whole tree per this node's mode.
  std::string dump_xml();

  /// Answer one interactive-port line: a path query, a JOIN message, or a
  /// HISTORY request ("HISTORY <path> <start> <end>") that serves an RRD
  /// series as XML — the data behind the frontend's graphs.
  Result<std::string> handle_interactive(std::string_view line);

  /// Serve archived history for "/source/cluster/host/metric" (host series)
  /// or "/scope/metric" (summary series; scope = source or source/cluster)
  /// over [start, end) as a <SERIES> document.
  Result<std::string> history(std::string_view path, std::int64_t start,
                              std::int64_t end);

  /// Path query only (no JOIN handling).
  Result<std::string> query(std::string_view line);

  /// Path query rendered in the requested format, reporting the store
  /// versions it read (the HTTP gateway's cache key material).
  Result<RenderedQuery> query_rendered(std::string_view line,
                                       render::Format format);

  /// Drive the meta view ("/?filter=summary") through any render backend —
  /// the presenter's HTML route.  Returns the dependency set.
  render::Deps render_meta(render::Backend& backend);

  /// Service adapters for in-memory transports.  Work done inside them is
  /// charged to *this* node's CPU meter even when a parent's poll thread
  /// runs them.
  net::ServiceFn dump_service();
  net::ServiceFn interactive_service();

  // -- delta federation (serving side) --------------------------------------

  /// Service adapter answering framed delta-federation polls against this
  /// node's current document in the view the poll names: the dump-port
  /// tree in typed form, or this node's grid in summary form.  Each
  /// request is one complete framed poll/ping; each response is a complete
  /// framed byte string — the same adapter serves the persistent
  /// federation port bound at config.federation_bind.
  net::ServiceFn federation_service();

  /// Bound federation port address (config.federation_bind until start()).
  std::string federation_address() const { return config_.federation_bind; }

  /// Serving-side delta counters for the stats route.
  fed::PublisherStats federation_stats() const { return publisher_->stats(); }

  // -- join protocol (child side) -----------------------------------------

  /// Send one JOIN message to a parent's interactive address.
  Status send_join(const std::string& parent_interactive_address);

  // -- gossip membership ----------------------------------------------------

  /// Enabled when config.gossip_bind is set: this node participates in the
  /// federation's gossip membership protocol and (per gossip_aggregate /
  /// standby_for) derives data sources from it instead of static
  /// data_source lines.
  bool gossip_enabled() const noexcept { return gossip_ != nullptr; }
  gossip::Agent* membership() noexcept { return gossip_.get(); }
  const gossip::Agent* membership() const noexcept { return gossip_.get(); }
  const gossip::FailoverController* failover() const noexcept {
    return failover_.get();
  }

  /// One gossip round followed by membership→source reconciliation.  The
  /// daemon scheduler calls this every gossip_interval_s; deterministic
  /// tests and benches drive it directly.
  void gossip_tick();

  // -- daemon mode ----------------------------------------------------------

  /// Bind the configured ports on the injected transport and start the
  /// poll scheduler and the serving reactor.  Ephemeral ports resolve into
  /// config().
  Status start();
  void stop();
  bool running() const noexcept { return running_.load(); }

  /// Actual bound addresses (useful with ephemeral ports).
  std::string xml_address() const { return config_.xml_bind; }
  std::string interactive_address() const { return config_.interactive_bind; }

  // -- introspection ----------------------------------------------------------

  const GmetadConfig& config() const noexcept { return config_; }
  Store& store() noexcept { return store_; }
  const Store& store() const noexcept { return store_; }
  Archiver& archiver() noexcept { return archiver_; }
  CpuMeter& cpu_meter() noexcept { return cpu_meter_; }
  const JoinRegistry& joins() const noexcept { return joins_; }

  /// Failover/health state per configured source.
  std::vector<const DataSource*> sources() const;

  /// Total bytes downloaded from sources since construction.
  std::uint64_t bytes_polled() const noexcept {
    return bytes_polled_.load(std::memory_order_relaxed);
  }

  /// Hook invoked at the end of every poll round with the round's
  /// timestamp — the attachment point for the alarm engine (src/alarm
  /// layers on top of gmetad, so the dependency points this way).
  void set_post_poll_hook(std::function<void(std::int64_t now)> hook) {
    post_poll_hook_ = std::move(hook);
  }

 private:
  QueryContext context();
  Result<std::string> handle_history_line(std::string_view line);
  void archive_snapshot(const SourceSnapshot& snapshot);
  /// trusted_hosts check at accept (logs refusals).
  bool peer_trusted(const std::string& peer) const;
  Result<std::string> handle_join_line(std::string_view line);

  /// One source's fetch→parse→summarise→archive→publish chain.  Runs on a
  /// pool worker; never called twice concurrently for the same source.
  PollResult poll_source(DataSource& source, std::int64_t now);
  /// Apply per-source knobs derived from the global config (federation
  /// client settings) before a DataSourceConfig becomes a DataSource.
  DataSourceConfig finish_source_config(DataSourceConfig ds) const;
  /// The document the delta publisher diffs, cached per view until a
  /// store version (or the clock second) moves: the dump-port tree in
  /// typed form, or this node's grid in summary form for the pollers that
  /// keep nothing more.
  fed::Doc current_doc(fed::View view);
  /// gossip::Agent::Carrier: route an outbound membership digest over the
  /// live federation poll session to that peer, when one exists.
  std::optional<Result<std::string>> piggyback_digest(
      const std::string& peer_address, const std::string& payload);
  /// Drop dynamic children whose joins lapsed (sources, schedule, store).
  void prune_expired_children(std::int64_t now);
  /// Reconcile membership-derived data sources (own children + any primary
  /// we currently cover as a standby) against the live member table.
  void sync_membership_sources();
  /// Round epilogue: root summary archive + post-poll hook.
  void finish_round(std::int64_t now);
  /// Daemon due-time scheduler: dispatch every due, not-in-flight source.
  void tick_scheduler();
  std::vector<std::shared_ptr<DataSource>> snapshot_sources() const;

  GmetadConfig config_;
  net::Transport& transport_;
  Clock& clock_;
  Store store_;
  Archiver archiver_;
  QueryEngine engine_;
  JoinRegistry joins_;
  CpuMeter cpu_meter_;
  std::atomic<std::uint64_t> bytes_polled_{0};
  std::function<void(std::int64_t)> post_poll_hook_;

  mutable std::mutex sources_mutex_;
  /// Workers hold shared_ptr copies, so a concurrent prune can drop a
  /// source from this vector without yanking it out from under a poll.
  std::vector<std::shared_ptr<DataSource>> sources_;

  /// Daemon due-time schedule, one entry per live source.
  struct SourceSchedule {
    std::int64_t next_due_s = 0;  ///< 0 = due immediately
    bool in_flight = false;
  };
  std::mutex schedule_mutex_;
  std::map<std::string, SourceSchedule> schedule_;
  /// Set by every completed poll; the next tick folds the root summary.
  std::atomic<bool> summary_dirty_{false};

  // Gossip membership.  failover_ is declared before gossip_ so the agent
  // (whose event handler feeds the controller) is destroyed first.
  std::unique_ptr<gossip::FailoverController> failover_;
  std::unique_ptr<gossip::Agent> gossip_;
  std::mutex membership_mutex_;
  /// Sources we adopted from the member table: name → advertised XML addr.
  std::map<std::string, std::string> membership_sources_;
  std::int64_t next_gossip_due_s_ = 0;  ///< scheduler thread only

  // Delta federation serving.  publisher_ always exists (cheap when idle)
  // so the in-memory service adapter and the stats route work without a
  // bound listener.  The document cache makes the provider idempotent per
  // (view, store versions, clock second) — repeated polls within one
  // second and polls from several parents share one built report.
  std::unique_ptr<fed::Publisher> publisher_;
  std::mutex doc_mutex_;
  std::array<fed::Doc, fed::kViews> doc_cache_;
  std::int64_t next_heartbeat_due_s_ = 0;  ///< scheduler thread only

  // Daemon mode.
  std::atomic<bool> running_{false};
  net::ServiceServer server_;  ///< every port, on one reactor
  std::jthread scheduler_;

  /// Declared last: destroyed first, joining any in-flight poll tasks
  /// before the members they reference go away.
  std::unique_ptr<PollPool> pool_;
};

}  // namespace ganglia::gmetad
