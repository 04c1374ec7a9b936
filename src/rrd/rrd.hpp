// Round-robin time-series database (an RRDtool work-alike).
//
// "Ganglia keeps historical records of data in specialized time-series
// databases, whose stream-based design supports a wide range of time scale
// queries employing lossy compression with a bias towards recent data ...
// The databases are highly optimized for this type of data and do not grow
// in size over time." (paper §2.1)
//
// The model follows RRDtool's: a fixed *step* defines primary data points
// (PDPs); each round-robin archive (RRA) consolidates `pdp_per_row`
// consecutive PDPs into one row with a consolidation function and keeps a
// fixed number of rows in a ring.  Queries pick the finest archive whose
// retention covers the requested range — so last-hour data is seen at full
// resolution and last-year data in coarse rows, with total storage constant.
//
// Silence handling implements the paper's forensic requirement: if a
// monitored node fails, updates stop, the heartbeat expires, and the
// archive records *unknown* ("zero record") rows for the downtime, marking
// the time of death.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace ganglia::rrd {

/// Unknown sample marker (rrdtool's "U").
inline double unknown() noexcept {
  return std::numeric_limits<double>::quiet_NaN();
}
inline bool is_unknown(double v) noexcept { return std::isnan(v); }

enum class ConsolidationFn : std::uint8_t { average, min, max, last };
std::string_view cf_name(ConsolidationFn cf) noexcept;

/// How raw update values become PDP values.
enum class DsType : std::uint8_t {
  gauge,    ///< value stored as-is (load, %cpu, bytes free)
  counter,  ///< monotonically increasing; stored as per-second rate
};

/// One data source (column) of the database.
struct DsDef {
  std::string name = "sum";
  DsType type = DsType::gauge;
  /// Max seconds between updates before samples become unknown.
  std::int64_t heartbeat_s = 60;
  /// Valid range; values outside become unknown.  NaN bound = unbounded.
  double min_value = std::numeric_limits<double>::quiet_NaN();
  double max_value = std::numeric_limits<double>::quiet_NaN();

  /// Same column; two NaN (unbounded) bounds are equal.
  bool operator==(const DsDef& other) const noexcept;
};

/// One archive (ring of consolidated rows).
struct RraDef {
  ConsolidationFn cf = ConsolidationFn::average;
  /// A row is unknown when more than `xff` of its PDPs are unknown.
  double xff = 0.5;
  std::uint32_t pdp_per_row = 1;
  std::uint32_t rows = 0;

  bool operator==(const RraDef&) const = default;
};

/// Complete database shape.
struct RrdDef {
  std::int64_t step_s = 15;
  std::vector<DsDef> ds;
  std::vector<RraDef> rras;

  /// The archive set real gmetad creates (step 15 s): full resolution for
  /// the last hour, then progressively coarser rows out to a year —
  /// "we can see a metric's history over the past year but with less
  /// resolution than if we ask about more recent behavior".
  static RrdDef ganglia_default(std::string ds_name = "sum",
                                std::int64_t heartbeat_s = 120);

  /// Same shape: a database of one can be restored over the other.
  bool operator==(const RrdDef&) const = default;
};

/// Windowed reduction over one archive range: the running sums a
/// consumer needs to fold a time window into a single value (mean, min,
/// max) without ever materialising the row vector.  `rows` counts every
/// row position the window covers (known or unknown) — the unit the query
/// engine's scan budget charges for historical reads.
struct WindowAgg {
  std::int64_t step = 0;     ///< row width of the archive that answered
  std::uint64_t rows = 0;    ///< rows in the window, known + unknown
  std::uint64_t known = 0;   ///< rows with a defined value
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const noexcept {
    return known == 0 ? unknown() : sum / static_cast<double>(known);
  }
};

/// A fetched series: values[i] covers [start + i*step, start + (i+1)*step).
struct Series {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t step = 0;
  ConsolidationFn cf = ConsolidationFn::average;
  std::vector<double> values;  ///< one per row; NaN = unknown

  std::size_t size() const noexcept { return values.size(); }
  std::int64_t time_at(std::size_t i) const noexcept {
    return start + static_cast<std::int64_t>(i) * step;
  }
};

class RoundRobinDb {
 public:
  /// Create a database over a shared, immutable definition whose first PDP
  /// period begins after `created_at`.  Every database of one shape can
  /// point at the same RrdDef (the archiver keeps two).  Fails on an
  /// empty/invalid definition.
  static Result<RoundRobinDb> create(std::shared_ptr<const RrdDef> def,
                                     std::int64_t created_at);

  /// Convenience: a database that owns its own copy of `def`.
  static Result<RoundRobinDb> create(RrdDef def, std::int64_t created_at);

  // -- updates ------------------------------------------------------------

  /// Feed one sample per data source at time `t` (seconds).  NaN marks an
  /// unknown sample.  Updates must have strictly increasing timestamps.
  Status update(std::int64_t t, std::span<const double> values);

  /// Single-data-source convenience.
  Status update(std::int64_t t, double value) {
    return update(t, std::span<const double>(&value, 1));
  }

  // -- queries ------------------------------------------------------------

  /// Fetch [start, end) consolidated with `cf`, choosing the
  /// finest-resolution archive that covers `start`.  Fails when no archive
  /// uses `cf`.
  Result<Series> fetch(ConsolidationFn cf, std::int64_t start,
                       std::int64_t end, std::size_t ds_index = 0) const;

  /// Reduce [start, end) in place over the same archive fetch() would
  /// pick, walking the round-robin ring directly — no row vector is
  /// built, so a wide historical window costs O(rows) adds and zero
  /// allocation.  Row-for-row equivalent to folding fetch()'s values
  /// (the query engine's time-range reads are byte-checked against that).
  Result<WindowAgg> reduce(ConsolidationFn cf, std::int64_t start,
                           std::int64_t end, std::size_t ds_index = 0) const;

  /// Most recent finished-PDP value (NaN when unknown / never updated).
  double last_value(std::size_t ds_index = 0) const;

  std::int64_t last_update() const noexcept { return last_update_; }
  std::int64_t step() const noexcept { return def_->step_s; }
  const RrdDef& definition() const noexcept { return *def_; }

  /// Total update() calls served (archiver load accounting).
  std::uint64_t update_count() const noexcept { return update_count_; }

  /// Fixed footprint of the ring storage in bytes — constant over time.
  std::size_t storage_bytes() const noexcept;

 private:
  friend class RrdCodec;
  RoundRobinDb() = default;

  // Everything a database changes lives in one heap block, allocated at
  // create() and never resized: per data source its PDP scratch and last
  // PDP, per archive its row cursor and per-ds CDP scratch, then every
  // archive's ring back to back (archive order, rows * ds values each).
  // The shape itself — step, data sources, archives — is the shared def_.
  // The block is std::byte storage, which implicitly creates these
  // trivially copyable objects; at() reaches them through std::launder.
  struct PdpScratch {
    double weighted_sum = 0;   ///< sum of value*seconds over known time
    std::int64_t known_s = 0;  ///< known seconds accumulated this step
    double last_raw = std::numeric_limits<double>::quiet_NaN();  // counters
  };
  struct CdpScratch {
    double agg = std::numeric_limits<double>::quiet_NaN();
    std::uint32_t unknown_count = 0;
  };
  struct RraCursor {
    std::uint32_t cur_row = 0;       ///< next row to write
    std::uint32_t pdp_count = 0;     ///< PDPs folded into the open row
    std::int64_t last_row_time = 0;  ///< end time of newest committed row
  };

  /// Byte offsets of the block's regions for this definition.
  std::size_t last_pdp_offset() const noexcept;
  std::size_t cursor_offset() const noexcept;
  std::size_t cdp_offset() const noexcept;
  std::size_t ring_offset() const noexcept;
  /// Ring values (rows * ds) of every archive before `rra`.
  std::size_t ring_start(std::size_t rra) const noexcept;

  template <class T>
  T* at(std::size_t offset) const noexcept {
    return std::launder(reinterpret_cast<T*>(block_.get() + offset));
  }
  PdpScratch* pdp() const noexcept { return at<PdpScratch>(0); }
  double* last_pdp() const noexcept { return at<double>(last_pdp_offset()); }
  RraCursor* cursors() const noexcept { return at<RraCursor>(cursor_offset()); }
  /// CDP scratch of archive `rra`, one per data source.
  CdpScratch* cdp(std::size_t rra) const noexcept {
    return at<CdpScratch>(cdp_offset()) + rra * def_->ds.size();
  }
  double* rings() const noexcept { return at<double>(ring_offset()); }

  void advance_to(std::int64_t pdp_end, std::span<const double> rates,
                  std::span<const std::uint8_t> known);
  void commit_pdp(std::int64_t pdp_end, std::span<const double> pdp_values);

  /// Index of the finest archive with CF `cf` still covering `start`
  /// (coarsest match as fallback; the archive count when no archive uses
  /// `cf`) — the shared resolution step of fetch() and reduce().
  std::size_t pick_rra(ConsolidationFn cf, std::int64_t start) const;

  /// Updates use stack scratch up to this many data sources (covers the
  /// 1-ds metric and 2-ds sum+num archives) and fall back to the heap.
  static constexpr std::size_t kInlineDs = 4;

  std::shared_ptr<const RrdDef> def_;
  std::unique_ptr<std::byte[]> block_;
  std::int64_t last_update_ = 0;   ///< time of last update() call
  std::int64_t pdp_start_ = 0;     ///< start of the in-progress PDP period
  std::uint64_t update_count_ = 0;
};

}  // namespace ganglia::rrd
