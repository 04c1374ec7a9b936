#include "gmetad/query.hpp"

#include "common/strings.hpp"
#include "gmetad/render/fragments.hpp"
#include "gmetad/render/json_backend.hpp"
#include "gmetad/render/traversal.hpp"
#include "gmetad/render/xml_backend.hpp"

namespace ganglia::gmetad {

bool QuerySegment::matches(std::string_view name) const {
  if (!is_regex) return text == name;
  return std::regex_match(name.begin(), name.end(), pattern);
}

Result<ParsedQuery> parse_query(std::string_view line) {
  line = trim(line);
  if (line.size() > kMaxQueryBytes) {
    return Err(Errc::invalid_argument,
               "query exceeds " + std::to_string(kMaxQueryBytes) + " bytes");
  }
  if (line.empty() || line.front() != '/') {
    return Err(Errc::invalid_argument,
               "query must start with '/', got '" + std::string(line) + "'");
  }

  ParsedQuery query;
  const auto qmark = line.find('?');
  if (qmark != std::string_view::npos) {
    const std::string_view option = line.substr(qmark + 1);
    if (option == "filter=summary") {
      query.summary = true;
    } else {
      return Err(Errc::invalid_argument,
                 "unknown query option '" + std::string(option) + "'");
    }
    line = line.substr(0, qmark);
  }

  for (std::string_view raw : split(line, '/', /*skip_empty=*/true)) {
    if (query.segments.size() >= kMaxQuerySegments) {
      return Err(Errc::invalid_argument,
                 "query exceeds " + std::to_string(kMaxQuerySegments) +
                     " segments");
    }
    QuerySegment segment;
    if (!raw.empty() && raw.front() == '~') {
      segment.is_regex = true;
      segment.text = std::string(raw.substr(1));
      if (segment.text.size() > kMaxRegexBytes) {
        // The cap bounds both std::regex construction (NFA size grows with
        // the pattern) and ECMAScript backtracking at match time.
        return Err(Errc::invalid_argument,
                   "regex exceeds " + std::to_string(kMaxRegexBytes) +
                       " bytes");
      }
      try {
        segment.pattern = std::regex(segment.text,
                                     std::regex::ECMAScript | std::regex::optimize);
      } catch (const std::regex_error& e) {
        return Err(Errc::invalid_argument,
                   "bad regex '" + segment.text + "': " + e.what());
      }
    } else {
      segment.text = std::string(raw);
    }
    query.segments.push_back(std::move(segment));
  }
  return query;
}

namespace {

/// Shared state of one query resolution across the document's two passes.
struct ResolveState {
  const ParsedQuery& query;
  render::Backend& backend;
  const SourceSnapshot* snapshot = nullptr;  ///< source being resolved
  std::size_t matches = 0;
  std::string redirect;  ///< authority URL hit below a summary grid
};

void resolve_host(ResolveState& state, const Cluster& cluster,
                  const Host& host, std::size_t seg) {
  const auto& segments = state.query.segments;
  if (seg == segments.size()) {
    render::walk_host_in_cluster(cluster, host, state.backend);
    ++state.matches;
    return;
  }
  // Exactly one more segment can match: a metric name (nothing lives
  // below a metric).
  if (seg + 1 != segments.size()) return;
  for (const Metric& metric : host.metrics) {
    if (!segments[seg].matches(metric.name)) continue;
    state.backend.begin_cluster(cluster);
    state.backend.begin_host(host);
    state.backend.metric(host, metric);
    state.backend.end_host(host);
    state.backend.end_cluster(cluster);
    ++state.matches;
  }
}

void resolve_cluster(ResolveState& state, const Cluster& cluster,
                     std::size_t seg) {
  const auto& segments = state.query.segments;
  if (seg == segments.size()) {
    if (state.query.summary) {
      // Serve the reduction precomputed on the summarisation time scale:
      // O(m), independent of cluster size.
      render::walk_cluster_summary(
          cluster, state.snapshot->cluster_summary(cluster), state.backend);
    } else {
      render::walk_cluster(cluster, state.backend);
    }
    ++state.matches;
    return;
  }
  if (cluster.is_summary_form()) {
    // Host data lives at the authority; nothing to descend into.
    return;
  }
  for (const auto& [host_name, host] : cluster.hosts) {
    if (!segments[seg].matches(host_name)) continue;
    resolve_host(state, cluster, host, seg + 1);
  }
}

void resolve_grid(ResolveState& state, const Grid& grid, std::size_t seg) {
  const auto& segments = state.query.segments;
  if (seg == segments.size()) {
    if (state.query.summary || grid.is_summary_form()) {
      render::walk_grid_summary(grid, grid.summarize(), state.backend);
    } else {
      render::walk_grid(grid, state.backend);
    }
    ++state.matches;
    return;
  }
  if (grid.is_summary_form()) {
    // An N-level node keeps only the summary; the higher-resolution view
    // lives at the grid's own authority URL (the paper's pointer tree).
    if (state.redirect.empty()) state.redirect = grid.authority;
    return;
  }
  state.backend.begin_grid(grid);
  for (const Cluster& cluster : grid.clusters) {
    if (segments[seg].matches(cluster.name)) {
      resolve_cluster(state, cluster, seg + 1);
    }
  }
  for (const Grid& child : grid.grids) {
    if (segments[seg].matches(child.name)) {
      resolve_grid(state, child, seg + 1);
    }
  }
  state.backend.end_grid(grid);
}

render::SourceInfo source_info(const SourceSnapshot& snapshot) {
  return render::SourceInfo{snapshot.name(), snapshot.is_grid(),
                            snapshot.reachable()};
}

}  // namespace

render::Deps QueryEngine::render_document(const ParsedQuery& query,
                                          const QueryContext& ctx,
                                          render::Backend& backend,
                                          const render::Format* splice_format,
                                          std::size_t& matches,
                                          std::string& redirect) const {
  // The dependency set mirrors what the walk below reads: a literal first
  // segment touches exactly one source; everything else (whole tree, meta
  // view, regex) reads all sources *and* depends on the set's membership.
  render::Deps deps;
  std::uint64_t structure_version = 0;
  auto sources = store_.all_versioned(&structure_version);
  const bool whole_set =
      query.segments.empty() || query.segments.front().is_regex;
  if (whole_set) {
    deps.structure = true;
    deps.structure_version = structure_version;
    deps.sources.reserve(sources.size());
    for (const auto& vs : sources) {
      deps.sources.push_back({vs.snapshot->name(), vs.version});
    }
  } else {
    for (const auto& vs : sources) {
      if (vs.snapshot->name() == query.segments.front().text) {
        deps.sources.push_back({vs.snapshot->name(), vs.version});
      }
    }
  }

  render::DocumentInfo info;
  info.version = ctx.version;
  info.source = "gmetad";
  info.grid_name = ctx.grid_name;
  info.authority = ctx.authority;
  info.localtime = ctx.now;
  backend.begin_document(info);

  // Two passes — clusters, then grids — so formats with per-kind child
  // arrays (JSON) compose without buffering; XML ignores the boundary.
  if (query.segments.empty()) {
    if (query.summary) {
      // Meta view: per-source summary rows followed by the grand total —
      // O(sources * m) bytes instead of O(C*H*m).
      SummaryInfo total;
      for (const auto& vs : sources) {
        backend.begin_source(source_info(*vs.snapshot));
        render::walk_source_clusters(*vs.snapshot, /*summary_only=*/true,
                                     backend);
        total.merge(vs.snapshot->summary());
        backend.end_source();
      }
      for (const auto& vs : sources) {
        backend.begin_source(source_info(*vs.snapshot));
        render::walk_source_grids(*vs.snapshot, ctx.mode,
                                  /*summary_only=*/true, backend);
        backend.end_source();
      }
      backend.total(total);
    } else {
      // Whole tree: splice snapshot fragments when the backend has a
      // serialized form, walk otherwise.
      for (const auto& vs : sources) {
        backend.begin_source(source_info(*vs.snapshot));
        if (splice_format != nullptr) {
          backend.splice_clusters(
              render::cluster_fragment(*vs.snapshot, *splice_format));
        } else {
          render::walk_source_clusters(*vs.snapshot, /*summary_only=*/false,
                                       backend);
        }
        backend.end_source();
      }
      for (const auto& vs : sources) {
        backend.begin_source(source_info(*vs.snapshot));
        if (splice_format != nullptr) {
          backend.splice_grids(
              render::grid_fragment(*vs.snapshot, *splice_format, ctx.mode));
        } else {
          render::walk_source_grids(*vs.snapshot, ctx.mode,
                                    /*summary_only=*/false, backend);
        }
        backend.end_source();
      }
    }
    matches = 1;
  } else {
    ResolveState state{query, backend, nullptr, 0, {}};
    for (const auto& vs : sources) {
      if (!query.segments.front().matches(vs.snapshot->name())) continue;
      state.snapshot = vs.snapshot.get();
      backend.begin_source(source_info(*vs.snapshot));
      // The source's own node: single cluster for gmond sources, the
      // child's top grid for gmetad sources.
      for (const Cluster& cluster : vs.snapshot->clusters()) {
        resolve_cluster(state, cluster, 1);
      }
      backend.end_source();
    }
    for (const auto& vs : sources) {
      if (!query.segments.front().matches(vs.snapshot->name())) continue;
      state.snapshot = vs.snapshot.get();
      backend.begin_source(source_info(*vs.snapshot));
      for (const Grid& grid : vs.snapshot->grids()) {
        resolve_grid(state, grid, 1);
      }
      backend.end_source();
    }
    matches = state.matches;
    redirect = state.redirect;
  }

  backend.end_document();
  return deps;
}

render::Deps QueryEngine::render_with(const ParsedQuery& query,
                                      const QueryContext& ctx,
                                      render::Backend& backend,
                                      std::size_t& matches,
                                      std::string& redirect) const {
  return render_document(query, ctx, backend, nullptr, matches, redirect);
}

Result<RenderedQuery> QueryEngine::execute_rendered(
    std::string_view line, const QueryContext& ctx,
    render::Format format) const {
  auto parsed = parse_query(line);
  if (!parsed.ok()) return parsed.error();

  RenderedQuery out;
  // Fragments exist only for the whole-tree full-detail walk; narrower
  // queries re-walk their (small) matched subtree.
  const bool splice = use_fragments_ && parsed->segments.empty() &&
                      !parsed->summary;
  const render::Format* splice_format = splice ? &format : nullptr;
  if (format == render::Format::xml) {
    render::XmlBackend backend(out.body);
    out.deps = render_document(*parsed, ctx, backend, splice_format,
                               out.matches, out.redirect);
  } else {
    render::JsonBackend backend(out.body);
    out.deps = render_document(*parsed, ctx, backend, splice_format,
                               out.matches, out.redirect);
  }

  if (out.matches == 0) {
    if (!out.redirect.empty()) {
      return Err(Errc::not_found,
                 "subtree is summarised here; full resolution at authority " +
                     out.redirect);
    }
    return Err(Errc::not_found,
               "no subtree matches '" + std::string(trim(line)) + "'");
  }
  return out;
}

Result<std::string> QueryEngine::execute(std::string_view line,
                                         const QueryContext& ctx) const {
  auto rendered = execute_rendered(line, ctx, render::Format::xml);
  if (!rendered.ok()) return rendered.error();
  return std::move(rendered->body);
}

std::string QueryEngine::dump(const QueryContext& ctx) const {
  ParsedQuery all;  // "/"
  std::string out;
  render::XmlBackend backend(out);
  const render::Format xml = render::Format::xml;
  std::size_t matches = 0;
  std::string redirect;
  render_document(all, ctx, backend, use_fragments_ ? &xml : nullptr, matches,
                  redirect);
  return out;
}

}  // namespace ganglia::gmetad
