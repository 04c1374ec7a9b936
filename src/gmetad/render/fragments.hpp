// Serialized snapshot fragments, primed where a reader asked.
//
// The paper's freshness-for-latency trade says a query serves the latest
// fully-parsed snapshot; this module extends the trade to *serialization*:
// each immutable SourceSnapshot materialises its serialized subtree bytes
// at most once, and full-tree responses are composed by splicing
// pre-escaped fragment bytes instead of re-walking and re-escaping every
// host on every request.
//
// Priming is read-driven.  A snapshot records which fragments its readers
// asked for, and the poll worker builds exactly those on the snapshot that
// replaces it, before publishing it (prime_fragments).  A fragment no
// reader asked for is never built ahead: the first reader builds it once
// and every later reader shares the bytes.  So a child that only serves
// its parent's delta polls builds no fragment at all, a child that serves
// XML dumps builds only its XML fragments, and a root whose dashboard
// reads the whole tree keeps every view it serves primed.
//
// Fragments come in two sections per format, matching the document walk's
// two passes: the source's cluster items and its grid items.  Grid items
// depend on the node's mode (N-level reports child grids as summaries),
// so the grid section keys on (format, mode).  Builders run through the
// same traversal and backends as the walk path, which is what makes splice
// output byte-identical to walk output.
#pragma once

#include <string>

#include "gmetad/config.hpp"
#include "gmetad/render/backend.hpp"
#include "gmetad/store.hpp"

namespace ganglia::gmetad::render {

/// Cached cluster-section bytes for a source (built on first use).
const std::string& cluster_fragment(const SourceSnapshot& snapshot,
                                    Format format);

/// Cached grid-section bytes for a source under the given mode.
const std::string& grid_fragment(const SourceSnapshot& snapshot, Format format,
                                 Mode mode);

/// Build on `snapshot` the fragments readers asked for on `previous`, the
/// snapshot it replaces (nullptr: none).  Called on the poll worker before
/// `snapshot` is published; builds no fragment that no reader asked for.
/// Idempotent and thread-safe.
void prime_fragments(const SourceSnapshot& snapshot,
                     const SourceSnapshot* previous);

}  // namespace ganglia::gmetad::render
