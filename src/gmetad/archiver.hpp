// Metric archiver: feeds RRDs from snapshots.
//
// "As metric archiving is a processor-intensive task, this redundancy is
// unwanted" (paper §2.1): in 1-level mode every gmetad between a cluster
// and the root keeps identical per-host archives for that cluster — the
// superfluous duplication the paper blames for the aggregate-CPU gap in
// figure 6.  In N-level mode only the authority archives a cluster at host
// granularity; upstream nodes archive summary RRDs (sum+num per metric).
//
// Downtime handling: when a source is unreachable nothing is written, the
// RRD heartbeat lapses, and the archive records *unknown* rows for the
// outage — the "zero record during the downtime, aiding time-of-death
// forensic analysis" of paper §2.1.
//
// Hot path: record_cluster() is batched.  A poll's updates are resolved
// against a per-source handle cache (host/metric → archive pointer, valid
// while the owning shard's generation is unchanged) and grouped by shard,
// so each shard mutex is taken once per poll instead of once per metric
// and steady-state updates never touch the key map at all.  Keys are built
// in a reusable buffer and looked up heterogeneously (string_view +
// precomputed hash) — the per-update string/hash/map/mutex round-trip of
// the old per-metric path survives only as record_host_metric(), kept as
// the measured baseline.
//
// Persistence is write-behind, rrdcached-style: every update marks its
// archive dirty; flush_dirty() (and the optional background flusher
// thread) walks one shard at a time, serialises that shard's dirty
// archives under its mutex, and performs all file I/O outside any shard
// lock via tmp-file + atomic rename — a crash mid-flush can truncate only
// a .tmp, never a live image.  The manifest is rewritten only when the key
// set changed.  Restore is tolerant: a corrupt image or a hostile manifest
// entry skips that archive and restores the rest.
//
// Concurrency: the poll pool archives several sources at once.  Databases
// are partitioned into hash shards, each with its own mutex, so workers
// writing different archives proceed in parallel and only true key
// collisions contend.  A single RoundRobinDb is never updated concurrently:
// each archive key belongs to exactly one source, and the scheduler runs at
// most one poll per source at a time (the per-source handle cache relies on
// the same invariant).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gmetad/store.hpp"
#include "rrd/rrd.hpp"

namespace ganglia::gmetad {

struct ArchiverOptions {
  std::int64_t step_s = 15;
  /// RRD heartbeat: samples older than this become unknown.
  std::int64_t heartbeat_s = 120;
  /// When non-empty, flush/load persist every database under this directory
  /// (the paper's deployments kept RRD files on tmpfs; we default to pure
  /// in-memory and offer this for restarts).
  std::string persist_dir;
  /// Write-behind cadence of the background flusher thread (seconds);
  /// 0 = no background flushing, archives are persisted only by explicit
  /// flush calls (the daemon flushes on stop).
  std::int64_t flush_interval_s = 0;
};

class Archiver {
 public:
  explicit Archiver(ArchiverOptions options);
  ~Archiver() { stop_flusher(); }

  Archiver(const Archiver&) = delete;
  Archiver& operator=(const Archiver&) = delete;

  /// Archive one host metric: key "<source>/<cluster>/<host>/<metric>".
  /// Per-metric compatibility path (one key build + shard lock per call);
  /// record_cluster() is the batched fast path.
  void record_host_metric(const std::string& source,
                          const std::string& cluster, const Host& host,
                          const Metric& metric, std::int64_t now);

  /// Archive a full-detail cluster at host granularity, batched: updates
  /// are grouped by shard (one mutex acquisition per shard per call) and
  /// steady-state updates resolve through the per-source handle cache.
  void record_cluster(const std::string& source, const Cluster& cluster,
                      std::int64_t now);

  /// Archive a summary (two data sources per metric: sum and num) under
  /// "<scope>/__summary__/<metric>".  Batched by shard like record_cluster.
  void record_summary(const std::string& scope, const SummaryInfo& summary,
                      std::int64_t now);

  /// Fetch a host metric's history.
  Result<rrd::Series> fetch_host_metric(const std::string& source,
                                        const std::string& cluster,
                                        const std::string& host,
                                        const std::string& metric,
                                        std::int64_t start,
                                        std::int64_t end) const;

  /// Reduce a host metric's history over [start, end) in place — the
  /// query engine's time-range read path.  Walks the round-robin window of
  /// the finest covering archive under the shard lock and returns only the
  /// running sums; no Series is materialised and no file is touched.
  Result<rrd::WindowAgg> reduce_host_metric(const std::string& source,
                                            const std::string& cluster,
                                            const std::string& host,
                                            const std::string& metric,
                                            std::int64_t start,
                                            std::int64_t end) const;

  /// Fetch a summary metric's history; ds 0 = sum, ds 1 = num.
  Result<rrd::Series> fetch_summary_metric(const std::string& scope,
                                           const std::string& metric,
                                           std::int64_t start,
                                           std::int64_t end,
                                           std::size_t ds_index = 0) const;

  // -- persistence ----------------------------------------------------------

  struct FlushStats {
    std::size_t archives_written = 0;
    bool manifest_rewritten = false;
  };

  /// Write every database to `persist_dir` (manifest + one image per
  /// archive), dirty or not, and clear all dirty bits.  Shards are
  /// serialised one at a time; file I/O happens outside every shard lock,
  /// via tmp-file + atomic rename.
  Status flush_to_disk();

  /// Write-behind flush: persist only archives updated since their last
  /// flush, and rewrite the manifest only when the key set changed.  Same
  /// locking discipline as flush_to_disk().
  Result<FlushStats> flush_dirty();

  /// Load all databases previously flushed to `persist_dir`, replacing any
  /// in-memory state for the same keys.  Missing directory is not an error
  /// (cold start).  Tolerant: leftover .tmp files are swept, and a corrupt
  /// image or an unsafe manifest entry (path separators, bytes encode_key
  /// would have escaped) skips that archive and restores the rest.
  Status load_from_disk();

  /// Spawn the background write-behind flusher (no-op unless persist_dir is
  /// set and flush_interval_s > 0).  Not thread-safe against itself; call
  /// from the same control path as stop_flusher().
  Status start_flusher();

  /// Join the flusher thread.  Idempotent; safe without start_flusher().
  void stop_flusher();

  bool flusher_running() const noexcept { return flusher_.joinable(); }

  // -- load accounting (the quantity the paper's figures track) ------------
  std::uint64_t rrd_updates() const noexcept {
    return updates_.load(std::memory_order_relaxed);
  }
  std::size_t database_count() const;
  std::size_t storage_bytes() const;
  /// Distinct RRD definitions the archives point at.  Every archive of the
  /// archiver's two shapes (metric; sum+num) shares one, so this stays at
  /// most 2 unless a restored image has a shape of its own.
  std::size_t definition_count() const;
  /// Archives updated since their last flush.
  std::size_t dirty_count() const;
  /// Completed flush passes (flush_to_disk + flush_dirty).
  std::uint64_t flush_count() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }
  /// Seconds since the last completed flush (monotonic clock); negative
  /// when nothing has been flushed yet.
  double seconds_since_last_flush() const;
  void reset_counters() { updates_.store(0, std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 16;

  /// One database plus its write-behind state.  Address-stable (the shard
  /// map is node-based), so handle caches may keep Archive pointers while
  /// the shard generation is unchanged.  The db lives by value in the map
  /// node: the update hot path pays one pointer chase (node), not two.
  struct Archive {
    rrd::RoundRobinDb db;
    bool dirty = false;  ///< guarded by the owning shard's mutex
  };

  /// Heterogeneous key lookup: probe with a string_view and a precomputed
  /// hash, no temporary std::string.
  struct KeyRef {
    std::string_view text;
    std::size_t hash = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const KeyRef& k) const noexcept { return k.hash; }
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
    std::size_t operator()(const std::string& s) const noexcept {
      return (*this)(std::string_view(s));
    }
  };
  struct KeyEq {
    using is_transparent = void;
    static std::string_view view(const KeyRef& k) noexcept { return k.text; }
    static std::string_view view(std::string_view s) noexcept { return s; }
    static std::string_view view(const std::string& s) noexcept { return s; }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const noexcept {
      return view(a) == view(b);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Archive, KeyHash, KeyEq> databases;
    /// Bumped whenever an existing entry is replaced or erased; cached
    /// Archive pointers from an older generation must re-resolve.  (Pure
    /// inserts don't move existing nodes and don't bump.)
    std::atomic<std::uint64_t> generation{0};
  };

  /// A resolved archive handle cached across polls.
  struct CachedHandle {
    Archive* archive = nullptr;
    std::uint32_t shard = 0;
    std::uint64_t generation = 0;
  };
  struct PendingUpdate {
    const Host* host;
    const Metric* metric;  ///< touched again only on a handle-cache miss
    CachedHandle* slot;
    double value;  ///< carried inline so the hit path stays in the buckets
  };
  /// Per-host metric slots, index-aligned with Host::metrics order (stable
  /// across polls in practice); a name mismatch falls back to a scan.
  struct HostSlots {
    std::vector<std::pair<std::string, CachedHandle>> slots;
  };
  /// Per-source resolution cache + reusable scratch.  A source is polled by
  /// at most one worker at a time, so no lock guards the contents.
  struct SourceCache {
    std::unordered_map<std::string, HostSlots, KeyHash, KeyEq> hosts;
    std::array<std::vector<PendingUpdate>, kShards> pending;
    std::string key_buf;
  };

  const Shard& shard_for(std::string_view key) const;

  /// Find-or-create under the shard mutex (caller must hold it); a new
  /// archive takes the shared definition `shape`.
  Archive* open_locked(Shard& shard, std::string_view key, std::size_t hash,
                       const std::shared_ptr<const rrd::RrdDef>& shape,
                       std::int64_t now);

  SourceCache& source_cache(const std::string& source);

  Result<FlushStats> flush_impl(bool everything);

  ArchiverOptions options_;
  /// The two archive shapes, built once: every host-metric archive points
  /// at `shapes_[0]` (one ds, "sum") and every summary archive at
  /// `shapes_[1]` ("sum" and "num").  Restored images of either adopt it.
  std::array<std::shared_ptr<const rrd::RrdDef>, 2> shapes_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> updates_{0};

  mutable std::mutex caches_mutex_;
  std::map<std::string, std::unique_ptr<SourceCache>> caches_;

  /// Serialises the file phases of flush/load against each other (shard
  /// mutexes still guard the in-memory databases).
  std::mutex flush_mutex_;
  /// Bumped on any archive creation/removal; compared against
  /// manifest_version_ to decide whether the manifest needs rewriting.
  std::atomic<std::uint64_t> key_set_version_{1};
  std::uint64_t manifest_version_ = 0;  ///< guarded by flush_mutex_
  std::atomic<std::int64_t> last_flush_steady_ms_{-1};
  std::atomic<std::uint64_t> flushes_{0};
  std::jthread flusher_;
};

}  // namespace ganglia::gmetad
