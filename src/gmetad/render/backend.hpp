// Format backends for the unified render pipeline.
//
// The serving path used to walk the monitoring tree three times — once per
// output format (XML in the query engine, JSON in the HTTP gateway, HTML in
// the presenter), each with its own traversal logic and its own bugs.  The
// render pipeline inverts that: one traversal (traversal.hpp, driven by the
// query engine) emits a stream of structural events, and a Backend turns
// those events into bytes.  R-GMA's mediated-view argument applies: one
// producer-side view, many consumer formats.
//
// Events mirror the Ganglia tree.  A document walk looks like:
//
//   begin_document
//     begin_source … cluster items … end_source      (clusters pass)
//     begin_source … grid items    … end_source      (grids pass)
//     [total]                                        (meta view only)
//   end_document
//
// The two-pass shape exists for JSON, whose documents hold all clusters in
// one array and all grids in another; XML interleaves freely and simply
// ignores the pass boundary.  begin_source/end_source produce no output in
// XML/JSON — they are grouping markers for the HTML meta view and the
// splice points for snapshot fragments.
#pragma once

#include <cstdint>
#include <string_view>

#include "xml/ganglia.hpp"

namespace ganglia::gmetad::render {

/// Serialization formats with snapshot fragment support.
enum class Format { xml, json };

/// Identity stamped on a rendered document (the answering gmetad).
struct DocumentInfo {
  std::string_view version;
  std::string_view source;     ///< SOURCE attribute ("gmetad")
  std::string_view grid_name;  ///< the node's own grid
  std::string_view authority;
  std::int64_t localtime = 0;
};

/// One data source as the document walk enters it.
struct SourceInfo {
  std::string_view name;
  bool is_grid = false;
  bool reachable = true;
};

/// Event sink for one tree traversal.  All handlers default to no-ops so a
/// backend implements only the events its format renders (the HTML meta
/// backend, for instance, cares about sources and summaries but not
/// individual metrics).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual void begin_document(const DocumentInfo&) {}
  virtual void end_document() {}

  virtual void begin_source(const SourceInfo&) {}
  virtual void end_source() {}

  virtual void begin_cluster(const Cluster&) {}
  virtual void end_cluster(const Cluster&) {}
  virtual void begin_grid(const Grid&) {}
  virtual void end_grid(const Grid&) {}
  virtual void begin_host(const Host&) {}
  virtual void end_host(const Host&) {}
  virtual void metric(const Host&, const Metric&) {}

  /// Summary reduction of the innermost open container.
  virtual void summary(const SummaryInfo&) {}

  /// Whole-tree total, emitted at document level after all sources (the
  /// meta view's grand TOTAL row).
  virtual void total(const SummaryInfo&) {}

  /// Splice pre-serialized fragment bytes into the current pass.  The bytes
  /// were produced by this same backend type walking the source at publish
  /// time, so splice output is byte-identical to the walk it replaces.
  /// Backends without a serialized form (HTML views) ignore splices; the
  /// engine never offers them fragments.
  virtual void splice_clusters(std::string_view) {}
  virtual void splice_grids(std::string_view) {}
};

}  // namespace ganglia::gmetad::render
