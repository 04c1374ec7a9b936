// The gmetad query engine.
//
// "Instead of returning the entire tree rooted at a node, monitors accept a
// small path-like query that specifies a single local subtree to report"
// (paper §2.3, fig 4).  Queries resolve through the store's three hash
// levels — data sources, clusters/grids, hosts — in O(1) per level; dumping
// the matched subtree then costs O(m) for summaries, O(H) for full-detail
// clusters, exactly the cost model of §2.3.2.
//
// Grammar:
//
//   query       := path [ "?" option ] | "/"
//   path        := "/" segment { "/" segment } [ "/" ]
//   segment     := literal | "~" regex          (regex: ECMAScript)
//   option      := "filter=summary"
//
// Examples:
//   /                          whole tree (the dump port's output)
//   /?filter=summary           meta view: one summary over all sources
//   /meteor                    cluster "meteor" at full resolution
//   /meteor?filter=summary     cluster-summary filter (§2.3.2)
//   /meteor/compute-0-0        one host
//   /meteor/compute-0-0/load_one   one metric
//   /attic/nashi/host-3        descend through a child grid
//   /~compute-.*/              regex (planned "next version" extension §4)
//
// Descending below a summary-form grid is impossible by design — the data
// lives at the child; the error carries the child's authority URL so the
// caller can follow the pointer-based distributed tree (§2.2).
//
// The query line arrives on the open service port, so parsing is hardened
// against adversarial input with hard caps (below).  The regex cap is the
// one that bounds CPU: std::regex construction compiles an NFA whose size
// grows with the pattern, and ECMAScript matching can backtrack
// exponentially in pattern length — capping the pattern at kMaxRegexBytes
// (and the subject strings at tree-name length) keeps both construction
// and matching cost bounded per query.
//
// Rendering goes through the unified render pipeline (gmetad/render): one
// traversal emits backend events, so the same resolution logic serves XML,
// JSON, and the presenter's HTML backends.  Whole-tree responses splice
// snapshot fragments instead of re-walking every host.
#pragma once

#include <cstddef>
#include <regex>
#include <string>
#include <vector>

#include "gmetad/config.hpp"
#include "gmetad/render/backend.hpp"
#include "gmetad/render/deps.hpp"
#include "gmetad/store.hpp"

namespace ganglia::gmetad {

/// Hard caps on query lines (adversarial input on the service port).
inline constexpr std::size_t kMaxQueryBytes = 4096;
inline constexpr std::size_t kMaxQuerySegments = 32;
inline constexpr std::size_t kMaxRegexBytes = 128;

struct QuerySegment {
  std::string text;
  bool is_regex = false;
  std::regex pattern;  // valid when is_regex

  bool matches(std::string_view name) const;
};

struct ParsedQuery {
  std::vector<QuerySegment> segments;
  bool summary = false;
};

/// Parse a query line.  Fails on empty input, bad options, bad regexes,
/// and lines exceeding the hard caps above.
Result<ParsedQuery> parse_query(std::string_view line);

/// Identity of the answering gmetad, stamped on every response.
struct QueryContext {
  std::string grid_name;
  std::string authority;
  std::string version = "2.5.4";
  Mode mode = Mode::n_level;
  std::int64_t now = 0;
};

/// A rendered response together with everything a response cache needs:
/// the store versions the body was computed from.
struct RenderedQuery {
  std::string body;
  render::Deps deps;
  std::size_t matches = 0;
  std::string redirect;  ///< authority URL hit below a summary grid
};

class QueryEngine {
 public:
  explicit QueryEngine(const Store& store) : store_(store) {}

  /// Execute a query line and render the response document as XML (the
  /// interactive port's format).
  Result<std::string> execute(std::string_view line,
                              const QueryContext& ctx) const;

  /// Execute a query line and render in the requested format, reporting
  /// the dependency set for cache invalidation.  not_found failures carry
  /// the redirect authority in the error message, as execute() does.
  Result<RenderedQuery> execute_rendered(std::string_view line,
                                         const QueryContext& ctx,
                                         render::Format format) const;

  /// The dump-port document: the entire tree per the node's mode
  /// (equivalent to the query "/").
  std::string dump(const QueryContext& ctx) const;

  /// Drive the document walk for an already-parsed query through any
  /// backend — the route by which the presenter's HTML backends share the
  /// traversal.  Returns the dependency set; match count and redirect are
  /// reported through the out-params.
  render::Deps render_with(const ParsedQuery& query, const QueryContext& ctx,
                           render::Backend& backend, std::size_t& matches,
                           std::string& redirect) const;

  /// Bench hook: disable snapshot fragment splicing to measure the
  /// walk-render path.  On by default.
  void set_use_fragments(bool on) noexcept { use_fragments_ = on; }
  bool use_fragments() const noexcept { return use_fragments_; }

 private:
  render::Deps render_document(const ParsedQuery& query,
                               const QueryContext& ctx,
                               render::Backend& backend,
                               const render::Format* splice_format,
                               std::size_t& matches,
                               std::string& redirect) const;

  const Store& store_;
  bool use_fragments_ = true;
};

}  // namespace ganglia::gmetad
