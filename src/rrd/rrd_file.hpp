// Binary persistence for RoundRobinDb.
//
// The paper's experiments put gmetad's RRD files on a tmpfs RAM disk to
// remove disk I/O; our archiver defaults to pure in-memory databases, and
// this codec provides the file-backed option (and snapshot/restore for
// daemon restarts).  Format: little-endian, fixed magic + version, the full
// definition, then every archive ring verbatim — load gives back an
// identical database including in-progress PDP state.  The image layout
// (GRRD0001) is independent of the in-memory one: per data source its PDP
// scratch, then its last PDP, then per archive its cursor, CDP scratch and
// ring.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/result.hpp"
#include "rrd/rrd.hpp"

namespace ganglia::rrd {

/// Write `bytes` to `path` via "<path>.tmp" + atomic rename: a crash
/// mid-write can leave a truncated .tmp behind, never a truncated `path`.
Status write_file_atomic(const std::string& path, std::string_view bytes);

class RrdCodec {
 public:
  /// Serialise the complete database state.
  static std::string serialize(const RoundRobinDb& db);

  /// Reconstruct a database from serialize() output.  An image whose
  /// definition equals one of `shapes` adopts that shared definition; any
  /// other gets a definition of its own.
  static Result<RoundRobinDb> deserialize(
      std::string_view bytes,
      std::span<const std::shared_ptr<const RrdDef>> shapes = {});

  /// File convenience wrappers; save_file writes via write_file_atomic.
  static Status save_file(const RoundRobinDb& db, const std::string& path);
  static Result<RoundRobinDb> load_file(
      const std::string& path,
      std::span<const std::shared_ptr<const RrdDef>> shapes = {});
};

}  // namespace ganglia::rrd
