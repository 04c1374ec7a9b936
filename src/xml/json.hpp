// Minimal streaming JSON writer.
//
// Lives beside the XML writer because src/xml is the serialization layer:
// the render pipeline (src/gmetad/render) emits monitoring trees through
// format backends, and both the XML and JSON backends need a writer below
// the gmetad layer.  This is the writing half only (the monitor never
// parses JSON), with correct string escaping and container bookkeeping so
// renderers cannot emit malformed documents by forgetting a comma.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ganglia::xml {

/// Append `s` JSON-escaped (without surrounding quotes).
void append_json_escaped(std::string& out, std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member key; must be followed by exactly one value/container.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);  ///< NaN/Inf serialise as null (JSON has no such numbers)
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(bool v);
  void null();

  /// Splice pre-serialized, pre-escaped JSON bytes as the next value (or
  /// array elements).  Used by the render pipeline to compose full-tree
  /// responses from serialized snapshot fragments: `bytes` must be one or
  /// more complete, comma-joined JSON values.  The leading comma (when the
  /// container already has elements) is emitted here; commas *between* the
  /// fragment's own values must already be inside `bytes`.  Empty fragments
  /// are a no-op.
  void raw(std::string_view bytes);

 private:
  void separator();

  std::string& out_;
  /// One flag per open container: true until the first element is written.
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace ganglia::xml
