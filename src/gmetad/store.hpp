// The gmetad in-memory store.
//
// "By organizing the parsed monitoring data in a series of hash tables, we
// can support very low-latency queries.  Our approach approximates a DOM
// design where each XML tag name keys into a hash table ... A node must
// search at most three hash table levels to find the desired subtree: data
// sources, summaries and cluster nodes, and node metrics." (paper §2.3.2)
//
// Concurrency follows the paper's freshness-for-latency trade: the poller
// parses a source's new report *off to the side* into an immutable
// SourceSnapshot and then publishes it with one atomic shared_ptr swap.
// "Query results are based only on the latest fully-parsed data, making
// long parsing times relatively insignificant.  If a query arrives during
// parsing, the previous summary will be returned."  Readers never block on
// the parser and vice versa.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "xml/ganglia.hpp"

namespace ganglia::gmetad {

/// Immutable parsed state of one data source.  Hash indexes are built once
/// at construction; afterwards the snapshot is safe for lock-free reads.
class SourceSnapshot {
 public:
  /// Build from a parsed report (`report` is consumed).  `is_grid` is
  /// inferred: a report carrying GRID elements came from a child gmetad.
  /// With eager_summary=false the reduction is computed on first use —
  /// the 1-level design (monitor-core 2.5.1) performed no summarisation
  /// during polling, and its poll path must not pay for one here.
  SourceSnapshot(std::string name, Report report, std::int64_t fetched_at,
                 bool eager_summary = true);

  SourceSnapshot(const SourceSnapshot&) = delete;
  SourceSnapshot& operator=(const SourceSnapshot&) = delete;
  SourceSnapshot(SourceSnapshot&&) = delete;
  SourceSnapshot& operator=(SourceSnapshot&&) = delete;

  /// An unreachable placeholder carrying the previous snapshot's data (so
  /// queries keep serving the last-known state, marked stale).  It shares
  /// the previous snapshot's report, indexes, summaries and fragment bytes
  /// (nothing is copied, summarised or serialised again) and keeps its
  /// fetch time: the data is still that old.
  static std::shared_ptr<const SourceSnapshot> unreachable_from(
      const std::shared_ptr<const SourceSnapshot>& previous, std::string name);

  const std::string& name() const noexcept { return name_; }
  bool is_grid() const noexcept { return body_->is_grid; }
  bool reachable() const noexcept { return reachable_; }
  std::int64_t fetched_at() const noexcept { return fetched_at_; }

  /// Full-detail clusters (gmond sources have exactly one; a 1-level child
  /// gmetad forwards many inside grids).
  const std::vector<Cluster>& clusters() const noexcept {
    return body_->report.clusters;
  }
  /// Child grids as received (full detail from 1-level children, summary
  /// form from N-level children).
  const std::vector<Grid>& grids() const noexcept {
    return body_->report.grids;
  }

  /// Additive summary over everything in this source (computed lazily when
  /// the snapshot was built without an eager summary; thread-safe).
  const SummaryInfo& summary() const;

  /// Precomputed summary of one cluster in this snapshot, so the
  /// cluster-summary query filter serves in O(m) instead of O(H) — the
  /// paper computes all reductions on the summarisation time scale, never
  /// at query time.  Clusters of this snapshot hit the reduction computed
  /// by summary(); a foreign cluster (defensive) is computed once and
  /// cached in the same map.
  const SummaryInfo& cluster_summary(const Cluster& cluster) const;

  /// Serialized subtree bytes, materialised once per slot (render
  /// fragments — see gmetad/render/fragments.hpp, which owns the slot
  /// layout).  A reader's call records the slot as read; `build` runs at
  /// most once per slot; concurrent callers block until the bytes exist.
  /// Keeping the cache here, keyed by opaque slot index, lets the snapshot
  /// stay ignorant of render formats.  `build` may read only the data a
  /// stale copy shares (clusters, grids, summaries), never the name or
  /// reachability, since a stale copy shares the bytes too.
  static constexpr std::size_t kFragmentSlots = 6;
  const std::string& fragment(std::size_t slot,
                              const std::function<std::string()>& build) const;

  /// Build a slot ahead of any reader without recording a read — the poll
  /// path primes the slots the previous snapshot's readers asked for.
  void prime_fragment(std::size_t slot,
                      const std::function<std::string()>& build) const;

  /// Fragment slots as bit masks (bit i = slot i): the slots a reader of
  /// this snapshot asked for, and the slots whose bytes exist.
  struct FragmentUse {
    std::uint32_t read = 0;
    std::uint32_t built = 0;
  };
  FragmentUse fragment_use() const noexcept;

  /// Authority URL of the child gmetad (empty for gmond sources).
  const std::string& authority() const noexcept { return body_->authority; }

  // -- hash lookups (level 2 of the paper's three) -------------------------
  /// Find a cluster anywhere in this source by name (O(1)).
  const Cluster* find_cluster(std::string_view cluster_name) const;
  /// Find a nested grid by name (O(1)).
  const Grid* find_grid(std::string_view grid_name) const;

  /// Total host count at full detail.
  std::size_t host_count() const noexcept { return body_->host_count; }

 private:
  /// What a stale copy shares with the snapshot it replaces: the report
  /// and everything derived from it.  The hash indexes hold string_views
  /// into `report` (short names sit in SSO buffers), so a body never
  /// relocates its storage.
  struct Body {
    explicit Body(Report r);

    void index_grid(const Grid& grid);
    void compute_summary();

    Report report;
    std::once_flag summary_once;
    SummaryInfo summary;
    /// One map for every cluster reduction (snapshot-owned clusters filled
    /// by compute_summary, foreign ones on demand).  References handed out
    /// are stable: unordered_map never relocates nodes on insert.
    std::shared_mutex summaries_mutex;
    std::unordered_map<const Cluster*, SummaryInfo> cluster_summaries;
    struct FragmentSlot {
      std::once_flag once;
      std::string bytes;
    };
    std::array<FragmentSlot, kFragmentSlots> fragments;
    std::atomic<std::uint32_t> fragments_built{0};
    std::string authority;
    bool is_grid = false;
    std::size_t host_count = 0;
    std::unordered_map<std::string_view, const Cluster*> cluster_index;
    std::unordered_map<std::string_view, const Grid*> grid_index;
  };

  SourceSnapshot(std::string name, std::shared_ptr<Body> body,
                 std::int64_t fetched_at);

  std::string name_;
  /// Its lazy caches (summary, cluster summaries, fragments) fill on
  /// first use behind their own once-flags and locks.
  std::shared_ptr<Body> body_;
  /// Written by readers (HTTP and query workers), read by the poll worker
  /// that builds this snapshot's successor.
  mutable std::atomic<std::uint32_t> fragments_read_{0};
  std::int64_t fetched_at_ = 0;
  bool reachable_ = true;
};

/// Level-1 hash table: data source name -> latest snapshot.
///
/// Invalidation is per source, not global: every publish assigns the source
/// a fresh version from one monotonic counter (versions are unique across
/// sources, so equality of a recorded version pins both the source and the
/// exact snapshot), and a separate structure version bumps only when the
/// source *set* changes (a name added or removed).  Anything rendered from
/// store contents records the versions it read (render::Deps) and stays
/// valid until one of *those* changes — publishing source A no longer
/// invalidates work derived from sources B..Z.  This replaces the old
/// global epoch() counter, which forced exactly that mass eviction.
class Store {
 public:
  /// One source together with the version its snapshot was published at.
  struct Versioned {
    std::shared_ptr<const SourceSnapshot> snapshot;
    std::uint64_t version = 0;
  };

  /// Atomically publish a new snapshot for its source.
  void publish(std::shared_ptr<const SourceSnapshot> snapshot);

  /// Latest snapshot for a source (nullptr when unknown).  Lock held only
  /// for the map lookup; the returned snapshot is immutable.
  std::shared_ptr<const SourceSnapshot> get(std::string_view source) const;

  /// All snapshots ordered by source name (stable report output).
  std::vector<std::shared_ptr<const SourceSnapshot>> all() const;

  /// All snapshots with their publish versions; when `structure_version`
  /// is non-null it receives the structure version observed under the same
  /// lock, so a renderer records a mutually consistent dependency set.
  std::vector<Versioned> all_versioned(
      std::uint64_t* structure_version = nullptr) const;

  /// Publish version of one source; 0 when the source is unknown (real
  /// versions start at 1, so 0 never validates a recorded dependency).
  std::uint64_t source_version(std::string_view source) const;

  /// Bumped only when a source joins or leaves the set.
  std::uint64_t structure_version() const noexcept {
    return structure_version_.load(std::memory_order_acquire);
  }

  /// Remove a source entirely (dynamic children that left the tree).
  void remove(std::string_view source);

  std::size_t size() const;

 private:
  std::atomic<std::uint64_t> version_counter_{0};
  std::atomic<std::uint64_t> structure_version_{0};
  mutable std::shared_mutex mutex_;
  std::map<std::string, Versioned, std::less<>> snapshots_;
};

}  // namespace ganglia::gmetad
