// Report differ: turns two consecutive typed reports into a packed row
// stream (codec.hpp row tags) that transforms the old report into the new
// one when applied by fed::apply_rows.
//
// The differ is conservative: whenever an edit sequence under the
// select-or-append row semantics could not reproduce the new report
// byte-exactly (retained children reordered, summary/detail form flips,
// duplicate names, dictionary overflow), it bails out and the publisher
// falls back to a full-XML resync.  Correctness therefore never depends
// on the differ finding a delta — only bandwidth does.
//
// Metric values are compared as VAL strings, never as parsed doubles: the
// client re-derives `numeric` from the string exactly like the XML parser,
// so a string-equal metric is model-equal on every consumer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fed/codec.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::fed {

/// One id space of a session's name dictionary.  Ids are dense and
/// append-only in emission order; kRowDefineName rows teach the peer new
/// entries.
class NameDict {
 public:
  std::optional<std::uint32_t> find(std::string_view name) const;
  /// Give `name` the next id; false past the id cap or the byte budget.
  bool add(std::string_view name, std::uint32_t& id);
  /// Forget every id at or above `size`.
  void truncate(std::size_t size);
  void clear() { truncate(0); }
  std::size_t size() const noexcept { return by_id_.size(); }

 private:
  using Ids = std::map<std::string, std::uint32_t, std::less<>>;
  Ids ids_;
  std::vector<Ids::iterator> by_id_;
  std::size_t bytes_ = 0;  ///< sum of the name lengths
};

/// The server half of a session's dictionary: host names and metric names,
/// each its own id space.  The publisher notes size() before diffing and
/// truncates back to it when the delta is not sent.
struct Dictionaries {
  NameDict hosts;
  NameDict metrics;

  struct Size {
    std::size_t hosts = 0;
    std::size_t metrics = 0;
  };
  Size size() const noexcept { return {hosts.size(), metrics.size()}; }
  void truncate(Size size) {
    hosts.truncate(size.hosts);
    metrics.truncate(size.metrics);
  }
  void clear() { truncate({}); }
};

/// Diff `oldr` -> `newr` into `out` (appending; callers normally pass it
/// empty).  Returns false when no faithful delta exists; `out` must then be
/// discarded and `dict` truncated back to its size before the call.
bool diff_report(const Report& oldr, const Report& newr, Dictionaries& dict,
                 RowBuffer& out);

}  // namespace ganglia::fed
