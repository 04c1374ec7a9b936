// Streaming XML writer.
//
// Gmon and gmetad serialise monitoring reports with this writer; it appends
// to a caller-owned string so a server can build a report directly into its
// send buffer.  Elements are closed automatically as `/>` when empty.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ganglia::xml {

class XmlWriter {
 public:
  /// pretty=true inserts newlines + two-space indentation (for humans and
  /// golden tests); production reports are written compact.
  explicit XmlWriter(std::string& out, bool pretty = false)
      : out_(out), pretty_(pretty) {}

  XmlWriter(const XmlWriter&) = delete;
  XmlWriter& operator=(const XmlWriter&) = delete;

  /// <?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>
  /// (the header real gmond emits).
  void declaration();

  /// <!DOCTYPE root SYSTEM "dtd"> — Ganglia ships a DTD reference.
  void doctype(std::string_view root, std::string_view dtd);

  /// Begin <name ...; attributes may follow until a child/text/close.
  void open(std::string_view name);

  /// Attribute on the most recently opened element.  Value is escaped.
  void attr(std::string_view name, std::string_view value);
  void attr(std::string_view name, std::int64_t value);
  void attr(std::string_view name, std::uint64_t value);
  void attr(std::string_view name, double value);

  /// Close the innermost open element (self-closing when empty).
  void close();

  /// Escaped character data inside the current element.
  void text(std::string_view content);

  /// Splice pre-serialized, pre-escaped element bytes as children of the
  /// current element.  The render pipeline uses this to compose full-tree
  /// responses from serialized snapshot fragments without re-walking (or
  /// re-escaping) the subtree.  `bytes` must be well-formed element markup
  /// produced by a compact (non-pretty) writer; an empty fragment is a
  /// no-op, so an element with only empty splices still self-closes.
  void raw(std::string_view bytes);

  /// Number of currently open elements.
  std::size_t depth() const noexcept { return stack_.size(); }

 private:
  void seal_start_tag();
  void indent();

  std::string& out_;
  std::vector<std::string> stack_;
  bool pretty_;
  bool tag_open_ = false;   ///< start tag written but '>' not yet emitted
  bool has_child_ = false;  ///< current element has children/text
};

}  // namespace ganglia::xml
