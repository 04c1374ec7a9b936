// Row-stream application: mutate a typed Report in place according to a
// packed row stream produced by fed::diff_report.
//
// The applier is strict: any malformed row, unknown tag, out-of-range
// dictionary id, removal of a missing child, or cap violation fails with
// Errc::parse_error and leaves the report in an unspecified state.  The
// session layer treats every failure the same way — drop the base and
// resync from full XML — so strictness costs one extra fetch and buys
// corruption detection.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::fed {

/// The client half of a session's dictionary: host names and metric
/// names, each its own dense id space.
struct Names {
  std::vector<std::string> hosts;
  std::vector<std::string> metrics;

  void clear() {
    hosts.clear();
    metrics.clear();
  }
};

/// Apply `rows` (concatenated packed rows, no framing) to `doc`.
/// kRowDefineName rows append to `names`.  On success `*applied` (when
/// non-null) is the number of rows consumed, for cross-checking against
/// the kFrameEnd row count.  A host record is checked whole before it
/// changes anything.
Status apply_rows(Report& doc, std::string_view rows, Names& names,
                  std::size_t* applied);

}  // namespace ganglia::fed
