#include "query/executor.hpp"

namespace ganglia::query {

namespace {

/// Walk state threaded through the source → cluster → host descent.
struct Exec {
  const Plan& plan;
  const gmetad::Archiver* archiver;
  const Budget& budget;
  GroupTable table;
  ExecStats stats;
  QueryError err;   ///< valid when failed
  bool failed = false;

  Exec(const Plan& plan_in, const gmetad::Archiver* archiver_in,
       const Budget& budget_in)
      : plan(plan_in),
        archiver(archiver_in),
        budget(budget_in),
        table(budget_in.max_groups) {}

  bool charge(std::uint64_t units) {
    stats.scanned += units;
    if (stats.scanned <= budget.max_scan) return true;
    err = budget_exceeded("query_max_scan", budget.max_scan, stats.scanned);
    failed = true;
    return false;
  }
};

bool matches(const gmetad::QuerySegment& sel, std::string_view name) {
  return Plan::match_all(sel) || sel.matches(name);
}

/// One host against the plan's filters; on pass, resolve its input value
/// (live metric or RRD window fold) and feed the group table.
void visit_host(Exec& exec, std::string_view source,
                const Cluster& cluster, const Host& host) {
  const Plan& plan = exec.plan;
  if (!matches(plan.host_sel, host.name)) return;
  if (!exec.charge(1)) return;
  if (plan.up && *plan.up != host.is_up()) return;

  for (const MetricCond& cond : plan.where) {
    const Metric* metric = host.find_metric(cond.metric);
    if (metric == nullptr || !metric->is_numeric()) return;
    if (!cmp_eval(cond.op, metric->numeric, cond.threshold)) return;
  }

  double value = 0;
  if (plan.range) {
    // Historical input: fold this host's archive rows over the window.
    // Hosts without an archive for the metric (never archived, or summary
    // archiving upstream) simply contribute nothing.
    auto window = exec.archiver->reduce_host_metric(
        std::string(source), cluster.name, host.name, plan.metric,
        plan.range->start, plan.range->end);
    if (!window.ok()) return;
    if (!exec.charge(window->rows)) return;
    if (window->known == 0) return;
    switch (plan.range->fold) {
      case WindowFold::avg: value = window->mean(); break;
      case WindowFold::min: value = window->min; break;
      case WindowFold::max: value = window->max; break;
    }
  } else if (!plan.metric.empty()) {
    const Metric* metric = host.find_metric(plan.metric);
    if (metric == nullptr || !metric->is_numeric()) return;
    value = metric->numeric;
  }
  // agg=count without a metric counts hosts; value stays 0 and only the
  // accumulator's count matters.

  ++exec.stats.matched_hosts;
  if (!exec.table.add(source, cluster.name, host.name, plan.group, value)) {
    exec.err = budget_exceeded("query_max_groups", exec.budget.max_groups,
                               exec.table.size() + 1);
    exec.failed = true;
  }
}

void visit_cluster(Exec& exec, std::string_view source,
                   const Cluster& cluster) {
  if (!matches(exec.plan.cluster_sel, cluster.name)) return;
  if (cluster.is_summary_form()) {
    // Hosts live at the child authority; the relation has no rows here.
    ++exec.stats.summary_skipped;
    return;
  }
  for (const auto& [name, host] : cluster.hosts) {
    if (exec.failed) return;
    visit_host(exec, source, cluster, host);
  }
}

void visit_grid(Exec& exec, std::string_view source, const Grid& grid) {
  if (grid.is_summary_form()) {
    ++exec.stats.summary_skipped;
    return;
  }
  for (const Cluster& cluster : grid.clusters) {
    if (exec.failed) return;
    visit_cluster(exec, source, cluster);
  }
  for (const Grid& child : grid.grids) {
    if (exec.failed) return;
    visit_grid(exec, source, child);
  }
}

}  // namespace

Expected<Output> execute(const Plan& plan, const gmetad::Store& store,
                         const gmetad::Archiver* archiver,
                         const Budget& budget) {
  if (plan.range && archiver == nullptr) {
    return bad_query("no archiver: time-range plans are unavailable");
  }

  Exec exec(plan, archiver, budget);
  Output out;

  // Dependency set mirrors the walk, exactly like the render pipeline's
  // render_document: a literal source selector pins single sources; a
  // regex or match-all depends on the set's membership too.
  std::uint64_t structure_version = 0;
  auto sources = store.all_versioned(&structure_version);
  const bool whole_set =
      Plan::match_all(plan.source_sel) || plan.source_sel.is_regex;
  if (whole_set) {
    out.deps.structure = true;
    out.deps.structure_version = structure_version;
    out.deps.sources.reserve(sources.size());
    for (const auto& vs : sources) {
      out.deps.sources.push_back({vs.snapshot->name(), vs.version});
    }
  } else {
    for (const auto& vs : sources) {
      if (vs.snapshot->name() == plan.source_sel.text) {
        out.deps.sources.push_back({vs.snapshot->name(), vs.version});
      }
    }
  }

  for (const auto& vs : sources) {
    if (exec.failed) break;
    const gmetad::SourceSnapshot& snapshot = *vs.snapshot;
    if (!matches(plan.source_sel, snapshot.name())) continue;
    for (const Cluster& cluster : snapshot.clusters()) {
      if (exec.failed) break;
      visit_cluster(exec, snapshot.name(), cluster);
    }
    for (const Grid& grid : snapshot.grids()) {
      if (exec.failed) break;
      visit_grid(exec, snapshot.name(), grid);
    }
  }
  if (exec.failed) return std::move(exec.err);

  exec.stats.groups = exec.table.size();
  out.rows = std::move(exec.table).finish(plan);
  out.stats = exec.stats;
  return out;
}

}  // namespace ganglia::query
