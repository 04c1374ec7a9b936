#include "gmetad/archiver.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "rrd/rrd_file.hpp"

namespace ganglia::gmetad {

namespace {

constexpr char kHostKeySep = '/';
constexpr std::string_view kSummaryInfix = "/__summary__/";

void build_host_key(std::string& buf, std::string_view source,
                    std::string_view cluster, std::string_view host,
                    std::string_view metric) {
  buf.clear();
  buf.reserve(source.size() + cluster.size() + host.size() + metric.size() + 3);
  buf += source;
  buf += kHostKeySep;
  buf += cluster;
  buf += kHostKeySep;
  buf += host;
  buf += kHostKeySep;
  buf += metric;
}

void build_summary_key(std::string& buf, std::string_view scope,
                       std::string_view metric) {
  buf.clear();
  buf.reserve(scope.size() + kSummaryInfix.size() + metric.size());
  buf += scope;
  buf += kSummaryInfix;
  buf += metric;
}

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Filesystem-safe file name for an archive key ('/' and other bytes that
/// matter to filesystems are percent-encoded).
bool safe_key_byte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
}

std::string encode_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (safe_key_byte(c)) {
      out += c;
    } else {
      out += strprintf("%%%02X", static_cast<unsigned char>(c));
    }
  }
  return out;
}

/// True when a manifest file name could have been produced by encode_key:
/// only safe bytes or '%' escapes, with the image suffix.  Anything else —
/// in particular path separators ("../../x.grrd") — is hostile and must
/// never be joined onto persist_dir.
bool safe_manifest_file(std::string_view file) {
  if (!ends_with(file, ".grrd") || file.size() == 5) return false;
  for (char c : file) {
    if (!safe_key_byte(c) && c != '%') return false;
  }
  return true;
}

}  // namespace

Archiver::Archiver(ArchiverOptions options) : options_(std::move(options)) {
  rrd::RrdDef metric =
      rrd::RrdDef::ganglia_default("sum", options_.heartbeat_s);
  metric.step_s = options_.step_s;
  rrd::RrdDef summary = metric;
  rrd::DsDef num = summary.ds.front();
  num.name = "num";
  summary.ds.push_back(std::move(num));
  shapes_ = {std::make_shared<const rrd::RrdDef>(std::move(metric)),
             std::make_shared<const rrd::RrdDef>(std::move(summary))};
}

const Archiver::Shard& Archiver::shard_for(std::string_view key) const {
  return shards_[KeyHash{}(key) % kShards];
}

Archiver::Archive* Archiver::open_locked(
    Shard& shard, std::string_view key, std::size_t hash,
    const std::shared_ptr<const rrd::RrdDef>& shape, std::int64_t now) {
  const auto it = shard.databases.find(KeyRef{key, hash});
  if (it != shard.databases.end()) return &it->second;

  auto db = rrd::RoundRobinDb::create(shape, now - 1);
  if (!db.ok()) return nullptr;  // invalid options; callers treat as no-op
  const auto [pos, inserted] =
      shard.databases.emplace(std::string(key), Archive{std::move(*db)});
  (void)inserted;
  key_set_version_.fetch_add(1, std::memory_order_release);
  return &pos->second;
}

Archiver::SourceCache& Archiver::source_cache(const std::string& source) {
  std::lock_guard lock(caches_mutex_);
  auto& slot = caches_[source];
  if (!slot) slot = std::make_unique<SourceCache>();
  return *slot;
}

void Archiver::record_host_metric(const std::string& source,
                                  const std::string& cluster,
                                  const Host& host, const Metric& metric,
                                  std::int64_t now) {
  if (!metric.is_numeric()) return;
  std::string key;
  build_host_key(key, source, cluster, host.name, metric.name);
  const std::size_t hash = KeyHash{}(std::string_view(key));
  Shard& shard = shards_[hash % kShards];
  std::lock_guard lock(shard.mutex);
  Archive* archive = open_locked(shard, key, hash, shapes_[0], now);
  if (archive == nullptr) return;
  if (archive->db.update(now, metric.numeric).ok()) {
    archive->dirty = true;
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Archiver::record_cluster(const std::string& source,
                              const Cluster& cluster, std::int64_t now) {
  SourceCache& cache = source_cache(source);

  // Drain the shard buckets: one mutex acquisition per shard with work.
  // Handles from a stale generation (an entry was replaced/erased, e.g. by
  // load_from_disk) re-resolve through the key map under the same lock.
  std::uint64_t done = 0;
  const auto drain = [&] {
    for (std::size_t i = 0; i < kShards; ++i) {
      std::vector<PendingUpdate>& bucket = cache.pending[i];
      if (bucket.empty()) continue;
      Shard& shard = shards_[i];
      std::lock_guard lock(shard.mutex);
      const std::uint64_t gen =
          shard.generation.load(std::memory_order_relaxed);
      for (const PendingUpdate& p : bucket) {
        CachedHandle& handle = *p.slot;
        Archive* archive = (handle.archive != nullptr && handle.shard == i &&
                            handle.generation == gen)
                               ? handle.archive
                               : nullptr;
        if (archive == nullptr) {
          build_host_key(cache.key_buf, source, cluster.name, p.host->name,
                         p.metric->name);
          const std::size_t hash = KeyHash{}(std::string_view(cache.key_buf));
          archive = open_locked(shard, cache.key_buf, hash, shapes_[0], now);
          if (archive == nullptr) continue;
          handle = {archive, static_cast<std::uint32_t>(i), gen};
        }
        if (archive->db.update(now, p.value).ok()) {
          archive->dirty = true;
          ++done;
        }
      }
      bucket.clear();  // keeps capacity for the next poll
    }
  };

  // Phase 1 — resolve, lock-free: probe the per-source handle cache and
  // bucket every numeric metric by shard.  Only cache misses pay a key
  // build + hash here (to learn the shard); hits carry it in the handle.
  // Buckets are drained every kDrainHosts hosts so a big cluster's slots
  // and pending entries are applied while still cache-hot — the extra
  // (uncontended) lock rounds are noise next to the avoided misses.
  constexpr std::size_t kDrainHosts = 64;
  std::size_t bucketed_hosts = 0;
  for (const auto& [host_name, host] : cluster.hosts) {
    (void)host_name;
    if (!host.is_up()) continue;  // silent hosts leave unknown gaps
    // NUL-separated composite (NUL cannot appear in XML-derived names, so
    // distinct cluster/host pairs can never collide).
    cache.key_buf.assign(cluster.name);
    cache.key_buf += '\0';
    cache.key_buf += host.name;
    const std::size_t host_hash = KeyHash{}(std::string_view(cache.key_buf));
    auto host_it = cache.hosts.find(KeyRef{cache.key_buf, host_hash});
    if (host_it == cache.hosts.end()) {
      host_it = cache.hosts.emplace(cache.key_buf, HostSlots{}).first;
    }
    HostSlots& slots = host_it->second;
    // Size up front: PendingUpdate keeps pointers into this vector, so it
    // must not reallocate while this host's updates are being bucketed.
    if (slots.slots.size() < host.metrics.size()) {
      slots.slots.resize(host.metrics.size());
    }
    for (std::size_t j = 0; j < host.metrics.size(); ++j) {
      const Metric& metric = host.metrics[j];
      if (!metric.is_numeric()) continue;
      auto& [slot_name, handle] = slots.slots[j];
      if (slot_name != metric.name) {
        // Metric order changed since the last poll: adopt the handle from
        // wherever this metric lived before, or start cold.
        CachedHandle moved;
        for (const auto& other : slots.slots) {
          if (other.first == metric.name) {
            moved = other.second;
            break;
          }
        }
        slot_name = metric.name;
        handle = moved;
      }
      std::size_t shard_idx;
      if (handle.archive != nullptr) {
        shard_idx = handle.shard;  // generation re-checked under the lock
      } else {
        build_host_key(cache.key_buf, source, cluster.name, host.name,
                       metric.name);
        shard_idx = KeyHash{}(std::string_view(cache.key_buf)) % kShards;
      }
      cache.pending[shard_idx].push_back(
          {&host, &metric, &handle, metric.numeric});
    }
    if (++bucketed_hosts % kDrainHosts == 0) drain();
  }

  // Phase 2 — apply whatever the chunked drains left over.
  drain();
  if (done != 0) updates_.fetch_add(done, std::memory_order_relaxed);
}

void Archiver::record_summary(const std::string& scope,
                              const SummaryInfo& summary, std::int64_t now) {
  struct Item {
    std::string key;
    std::size_t hash;
    const MetricSummary* ms;
  };
  std::array<std::vector<Item>, kShards> buckets;
  for (const auto& [metric_name, ms] : summary.metrics) {
    std::string key;
    build_summary_key(key, scope, metric_name);
    const std::size_t hash = KeyHash{}(std::string_view(key));
    buckets[hash % kShards].push_back({std::move(key), hash, &ms});
  }
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    if (buckets[i].empty()) continue;
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mutex);
    for (const Item& item : buckets[i]) {
      Archive* archive =
          open_locked(shard, item.key, item.hash, shapes_[1], now);
      if (archive == nullptr) continue;
      const double values[2] = {item.ms->sum,
                                static_cast<double>(item.ms->num)};
      if (archive->db.update(now, std::span<const double>(values, 2)).ok()) {
        archive->dirty = true;
        ++done;
      }
    }
  }
  if (done != 0) updates_.fetch_add(done, std::memory_order_relaxed);
}

Result<rrd::Series> Archiver::fetch_host_metric(
    const std::string& source, const std::string& cluster,
    const std::string& host, const std::string& metric, std::int64_t start,
    std::int64_t end) const {
  std::string key;
  build_host_key(key, source, cluster, host, metric);
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.databases.find(std::string_view(key));
  if (it == shard.databases.end()) {
    return Err(Errc::not_found, "no archive for " + host + "/" + metric);
  }
  return it->second.db.fetch(rrd::ConsolidationFn::average, start, end);
}

Result<rrd::WindowAgg> Archiver::reduce_host_metric(
    const std::string& source, const std::string& cluster,
    const std::string& host, const std::string& metric, std::int64_t start,
    std::int64_t end) const {
  std::string key;
  build_host_key(key, source, cluster, host, metric);
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.databases.find(std::string_view(key));
  if (it == shard.databases.end()) {
    return Err(Errc::not_found, "no archive for " + host + "/" + metric);
  }
  // The reduction runs under the shard mutex (like fetch), but touches only
  // the window's rows — a historical query never deserialises files or
  // copies the ring.
  return it->second.db.reduce(rrd::ConsolidationFn::average, start, end);
}

Result<rrd::Series> Archiver::fetch_summary_metric(const std::string& scope,
                                                   const std::string& metric,
                                                   std::int64_t start,
                                                   std::int64_t end,
                                                   std::size_t ds_index) const {
  std::string key;
  build_summary_key(key, scope, metric);
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.databases.find(std::string_view(key));
  if (it == shard.databases.end()) {
    return Err(Errc::not_found, "no summary archive for " + scope + "/" + metric);
  }
  return it->second.db.fetch(rrd::ConsolidationFn::average, start, end,
                              ds_index);
}

// ------------------------------------------------------------- persistence

Status Archiver::flush_to_disk() {
  auto flushed = flush_impl(/*everything=*/true);
  if (!flushed.ok()) return flushed.error();
  return {};
}

Result<Archiver::FlushStats> Archiver::flush_dirty() {
  return flush_impl(/*everything=*/false);
}

Result<Archiver::FlushStats> Archiver::flush_impl(bool everything) {
  if (options_.persist_dir.empty()) {
    return Err(Errc::invalid_argument, "no persist_dir configured");
  }
  std::lock_guard flush_lock(flush_mutex_);
  std::error_code ec;
  std::filesystem::create_directories(options_.persist_dir, ec);
  if (ec) {
    return Err(Errc::io_error,
               "cannot create " + options_.persist_dir + ": " + ec.message());
  }
  const std::uint64_t keys_now =
      key_set_version_.load(std::memory_order_acquire);

  FlushStats stats;
  struct Image {
    const std::string* key;  ///< node-stable map key
    std::string file;
    std::string bytes;
  };
  // One shard at a time: serialise that shard's (dirty) archives under its
  // mutex, then do every file write with no shard lock held.  Updates that
  // land between the serialise and the write simply re-dirty the archive
  // for the next pass.
  for (Shard& shard : shards_) {
    std::vector<Image> images;
    {
      std::lock_guard lock(shard.mutex);
      for (auto& [key, archive] : shard.databases) {
        if (!everything && !archive.dirty) continue;
        images.push_back({&key, encode_key(key) + ".grrd",
                          rrd::RrdCodec::serialize(archive.db)});
        archive.dirty = false;
      }
    }
    for (std::size_t w = 0; w < images.size(); ++w) {
      if (Status s = rrd::write_file_atomic(
              options_.persist_dir + "/" + images[w].file, images[w].bytes);
          !s.ok()) {
        // Re-mark what this pass failed to persist so the next one retries.
        std::lock_guard lock(shard.mutex);
        for (std::size_t r = w; r < images.size(); ++r) {
          const auto it = shard.databases.find(*images[r].key);
          if (it != shard.databases.end()) it->second.dirty = true;
        }
        return s.error();
      }
      ++stats.archives_written;
    }
  }

  if (everything || manifest_version_ != keys_now) {
    // Manifest: one "encoded-filename<TAB>raw-key" line per archive, in
    // sorted key order so it is deterministic regardless of sharding.
    std::map<std::string, std::string> ordered;
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      for (const auto& [key, archive] : shard.databases) {
        (void)archive;
        ordered.emplace(key, encode_key(key) + ".grrd");
      }
    }
    std::string manifest;
    for (const auto& [key, file] : ordered) {
      manifest += file + "\t" + key + "\n";
    }
    if (Status s = rrd::write_file_atomic(
            options_.persist_dir + "/manifest.tsv", manifest);
        !s.ok()) {
      return s.error();
    }
    // Conservative: keys added while collecting bump key_set_version_ past
    // keys_now, so the next flush rewrites again.
    manifest_version_ = keys_now;
    stats.manifest_rewritten = true;
  }

  last_flush_steady_ms_.store(steady_now_ms(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

Status Archiver::load_from_disk() {
  if (options_.persist_dir.empty()) {
    return Err(Errc::invalid_argument, "no persist_dir configured");
  }
  std::lock_guard flush_lock(flush_mutex_);

  // Sweep kill -9 leftovers: a "<name>.tmp" never reached its rename and
  // is garbage by definition (the manifest only names final images).
  std::error_code ec;
  for (std::filesystem::directory_iterator it(options_.persist_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ".tmp") {
      std::error_code remove_ec;
      std::filesystem::remove(it->path(), remove_ec);
    }
  }

  std::ifstream manifest(options_.persist_dir + "/manifest.tsv");
  if (!manifest) return {};  // cold start
  std::size_t restored = 0;
  std::size_t skipped = 0;
  std::string line;
  while (std::getline(manifest, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string file = line.substr(0, tab);
    const std::string key = line.substr(tab + 1);
    if (!safe_manifest_file(file)) {
      GLOG(warn, "archiver") << "rejecting unsafe manifest entry '" << file
                             << "'";
      ++skipped;
      continue;
    }
    auto db = rrd::RrdCodec::load_file(options_.persist_dir + "/" + file,
                                       shapes_);
    if (!db.ok()) {
      // Torn write or deleted image: restore everything else.
      GLOG(warn, "archiver") << "skipping archive '" << key
                             << "': " << db.error().to_string();
      ++skipped;
      continue;
    }
    const std::size_t hash = KeyHash{}(std::string_view(key));
    Shard& shard = shards_[hash % kShards];
    std::lock_guard lock(shard.mutex);
    const auto it = shard.databases.find(KeyRef{key, hash});
    if (it != shard.databases.end()) {
      it->second.db = std::move(*db);
      it->second.dirty = false;
      // Replaced an entry: stale cached handles must re-resolve.
      shard.generation.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.databases.emplace(key, Archive{std::move(*db)});
      key_set_version_.fetch_add(1, std::memory_order_release);
    }
    ++restored;
  }
  if (skipped != 0) {
    GLOG(warn, "archiver") << "restore: " << restored << " archives loaded, "
                           << skipped << " skipped";
  }
  return {};
}

Status Archiver::start_flusher() {
  if (options_.persist_dir.empty() || options_.flush_interval_s <= 0) {
    return {};
  }
  if (flusher_.joinable()) return {};  // already running
  flusher_ = std::jthread([this](std::stop_token token) {
    std::mutex wait_mutex;
    std::condition_variable_any cv;
    std::unique_lock lock(wait_mutex);
    while (!token.stop_requested()) {
      cv.wait_for(lock, token,
                  std::chrono::seconds(options_.flush_interval_s),
                  [] { return false; });
      if (token.stop_requested()) break;
      if (auto flushed = flush_dirty(); !flushed.ok()) {
        GLOG(warn, "archiver") << "write-behind flush failed: "
                               << flushed.error().to_string();
      }
    }
  });
  return {};
}

void Archiver::stop_flusher() {
  if (!flusher_.joinable()) return;
  flusher_.request_stop();
  flusher_.join();
  flusher_ = std::jthread();
}

std::size_t Archiver::database_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    n += shard.databases.size();
  }
  return n;
}

std::size_t Archiver::storage_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, archive] : shard.databases) {
      (void)key;
      bytes += archive.db.storage_bytes();
    }
  }
  return bytes;
}

std::size_t Archiver::definition_count() const {
  std::set<const rrd::RrdDef*> seen;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, archive] : shard.databases) {
      (void)key;
      seen.insert(&archive.db.definition());
    }
  }
  return seen.size();
}

std::size_t Archiver::dirty_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, archive] : shard.databases) {
      (void)key;
      if (archive.dirty) ++n;
    }
  }
  return n;
}

double Archiver::seconds_since_last_flush() const {
  const std::int64_t at = last_flush_steady_ms_.load(std::memory_order_relaxed);
  if (at < 0) return -1.0;
  return static_cast<double>(steady_now_ms() - at) / 1000.0;
}

}  // namespace ganglia::gmetad
