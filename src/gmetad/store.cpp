#include "gmetad/store.hpp"

#include <cassert>
#include <mutex>
#include <shared_mutex>

namespace ganglia::gmetad {

SourceSnapshot::Body::Body(Report r) : report(std::move(r)) {
  is_grid = !report.grids.empty();
  if (is_grid) authority = report.grids.front().authority;
  for (const Cluster& c : report.clusters) {
    cluster_index.emplace(c.name, &c);
    host_count += c.hosts.size();
  }
  for (const Grid& g : report.grids) index_grid(g);
}

void SourceSnapshot::Body::index_grid(const Grid& grid) {
  grid_index.emplace(grid.name, &grid);
  for (const Cluster& c : grid.clusters) {
    cluster_index.emplace(c.name, &c);
    host_count += c.hosts.size();
  }
  for (const Grid& g : grid.grids) index_grid(g);
}

void SourceSnapshot::Body::compute_summary() {
  // One pass computes and caches every cluster reduction (including those
  // inside full-detail child grids) and folds them into the source total.
  // Runs under call_once, so no reader observes the map mid-build; the
  // lock still guards against a concurrent foreign-cluster insert from a
  // caller whose call_once already completed.
  std::unique_lock lock(summaries_mutex);
  const auto add_cluster = [this](const Cluster& c) -> const SummaryInfo& {
    return cluster_summaries.emplace(&c, c.summarize()).first->second;
  };
  for (const Cluster& c : report.clusters) summary.merge(add_cluster(c));
  const auto walk = [&add_cluster](const auto& self,
                                   const Grid& g) -> SummaryInfo {
    if (g.summary) return *g.summary;
    SummaryInfo total;
    for (const Cluster& c : g.clusters) total.merge(add_cluster(c));
    for (const Grid& child : g.grids) total.merge(self(self, child));
    return total;
  };
  for (const Grid& g : report.grids) summary.merge(walk(walk, g));
}

SourceSnapshot::SourceSnapshot(std::string name, Report report,
                               std::int64_t fetched_at, bool eager_summary)
    : SourceSnapshot(std::move(name),
                     std::make_shared<Body>(std::move(report)), fetched_at) {
  if (eager_summary) summary();
}

SourceSnapshot::SourceSnapshot(std::string name, std::shared_ptr<Body> body,
                               std::int64_t fetched_at)
    : name_(std::move(name)), body_(std::move(body)),
      fetched_at_(fetched_at) {}

const SummaryInfo& SourceSnapshot::summary() const {
  Body& body = *body_;
  std::call_once(body.summary_once, [&body] { body.compute_summary(); });
  return body.summary;
}

const SummaryInfo& SourceSnapshot::cluster_summary(const Cluster& cluster) const {
  summary();  // ensure the cache is built (all clusters of this snapshot)
  Body& body = *body_;
  {
    std::shared_lock lock(body.summaries_mutex);
    const auto it = body.cluster_summaries.find(&cluster);
    if (it != body.cluster_summaries.end()) return it->second;
  }
  // A cluster that is not part of this snapshot (defensive): compute once
  // under the writer lock and cache it alongside the rest.
  std::unique_lock lock(body.summaries_mutex);
  return body.cluster_summaries.try_emplace(&cluster, cluster.summarize())
      .first->second;
}

const std::string& SourceSnapshot::fragment(
    std::size_t slot, const std::function<std::string()>& build) const {
  assert(slot < kFragmentSlots);
  const std::uint32_t bit = 1U << slot;
  // Test before setting: steady-state readers find the bit set and never
  // write the shared cache line.
  if ((fragments_read_.load(std::memory_order_relaxed) & bit) == 0) {
    fragments_read_.fetch_or(bit, std::memory_order_relaxed);
  }
  prime_fragment(slot, build);
  return body_->fragments[slot].bytes;
}

void SourceSnapshot::prime_fragment(
    std::size_t slot, const std::function<std::string()>& build) const {
  assert(slot < kFragmentSlots);
  Body& body = *body_;
  Body::FragmentSlot& cell = body.fragments[slot];
  std::call_once(cell.once, [&body, &cell, &build, slot] {
    cell.bytes = build();
    body.fragments_built.fetch_or(1U << slot, std::memory_order_release);
  });
}

SourceSnapshot::FragmentUse SourceSnapshot::fragment_use() const noexcept {
  return {fragments_read_.load(std::memory_order_relaxed),
          body_->fragments_built.load(std::memory_order_acquire)};
}

std::shared_ptr<const SourceSnapshot> SourceSnapshot::unreachable_from(
    const std::shared_ptr<const SourceSnapshot>& previous, std::string name) {
  std::shared_ptr<SourceSnapshot> snapshot(
      previous ? new SourceSnapshot(std::move(name), previous->body_,
                                    previous->fetched_at_)
               : new SourceSnapshot(std::move(name),
                                    std::make_shared<Body>(Report{}), 0));
  snapshot->reachable_ = false;
  return snapshot;
}

const Cluster* SourceSnapshot::find_cluster(std::string_view cluster_name) const {
  const auto it = body_->cluster_index.find(cluster_name);
  return it == body_->cluster_index.end() ? nullptr : it->second;
}

const Grid* SourceSnapshot::find_grid(std::string_view grid_name) const {
  const auto it = body_->grid_index.find(grid_name);
  return it == body_->grid_index.end() ? nullptr : it->second;
}

void Store::publish(std::shared_ptr<const SourceSnapshot> snapshot) {
  std::unique_lock lock(mutex_);
  // One counter for all sources: a version pins the exact snapshot, and
  // comparing recorded versions never needs per-source counters.
  const std::uint64_t version =
      version_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Take the key before the move: arguments are indeterminately sequenced,
  // so snapshot->name() inside the call could read a moved-from pointer.
  std::string name = snapshot->name();
  auto [it, inserted] = snapshots_.insert_or_assign(
      std::move(name), Versioned{std::move(snapshot), version});
  (void)it;
  if (inserted) {
    structure_version_.fetch_add(1, std::memory_order_release);
  }
}

std::shared_ptr<const SourceSnapshot> Store::get(std::string_view source) const {
  std::shared_lock lock(mutex_);
  const auto it = snapshots_.find(source);
  return it == snapshots_.end() ? nullptr : it->second.snapshot;
}

std::vector<std::shared_ptr<const SourceSnapshot>> Store::all() const {
  std::shared_lock lock(mutex_);
  std::vector<std::shared_ptr<const SourceSnapshot>> out;
  out.reserve(snapshots_.size());
  for (const auto& [name, entry] : snapshots_) {
    (void)name;
    out.push_back(entry.snapshot);
  }
  return out;
}

std::vector<Store::Versioned> Store::all_versioned(
    std::uint64_t* structure_version) const {
  std::shared_lock lock(mutex_);
  if (structure_version != nullptr) {
    *structure_version = structure_version_.load(std::memory_order_acquire);
  }
  std::vector<Versioned> out;
  out.reserve(snapshots_.size());
  for (const auto& [name, entry] : snapshots_) {
    (void)name;
    out.push_back(entry);
  }
  return out;
}

std::uint64_t Store::source_version(std::string_view source) const {
  std::shared_lock lock(mutex_);
  const auto it = snapshots_.find(source);
  return it == snapshots_.end() ? 0 : it->second.version;
}

void Store::remove(std::string_view source) {
  std::unique_lock lock(mutex_);
  const auto it = snapshots_.find(source);
  if (it != snapshots_.end()) {
    snapshots_.erase(it);
    structure_version_.fetch_add(1, std::memory_order_release);
  }
}

std::size_t Store::size() const {
  std::shared_lock lock(mutex_);
  return snapshots_.size();
}

}  // namespace ganglia::gmetad
