#include "rrd/rrd.hpp"

#include <algorithm>

namespace ganglia::rrd {

std::string_view cf_name(ConsolidationFn cf) noexcept {
  switch (cf) {
    case ConsolidationFn::average: return "AVERAGE";
    case ConsolidationFn::min: return "MIN";
    case ConsolidationFn::max: return "MAX";
    case ConsolidationFn::last: return "LAST";
  }
  return "AVERAGE";
}

RrdDef RrdDef::ganglia_default(std::string ds_name, std::int64_t heartbeat_s) {
  RrdDef def;
  def.step_s = 15;
  DsDef ds;
  ds.name = std::move(ds_name);
  ds.heartbeat_s = heartbeat_s;
  def.ds.push_back(std::move(ds));
  // Real gmetad's archive ladder: 61 minutes at 15 s resolution, then a day
  // hourly-ish, a week, a month, and a year at ~daily rows.  Sizes are kept
  // verbatim from ganglia 2.5 (244/244/244/244/374 rows).
  def.rras = {
      {ConsolidationFn::average, 0.5, 1, 244},
      {ConsolidationFn::average, 0.5, 24, 244},
      {ConsolidationFn::average, 0.5, 168, 244},
      {ConsolidationFn::average, 0.5, 672, 244},
      {ConsolidationFn::average, 0.5, 5760, 374},
  };
  return def;
}

bool DsDef::operator==(const DsDef& other) const noexcept {
  const auto same_bound = [](double a, double b) {
    return a == b || (is_unknown(a) && is_unknown(b));
  };
  return name == other.name && type == other.type &&
         heartbeat_s == other.heartbeat_s &&
         same_bound(min_value, other.min_value) &&
         same_bound(max_value, other.max_value);
}

namespace {
std::int64_t align_down(std::int64_t t, std::int64_t step) {
  return (t / step) * step - (t % step < 0 ? step : 0);
}
}  // namespace

Result<RoundRobinDb> RoundRobinDb::create(RrdDef def, std::int64_t created_at) {
  return create(std::make_shared<const RrdDef>(std::move(def)), created_at);
}

Result<RoundRobinDb> RoundRobinDb::create(std::shared_ptr<const RrdDef> shared,
                                          std::int64_t created_at) {
  if (!shared) return Err(Errc::invalid_argument, "no definition");
  const RrdDef& def = *shared;
  if (def.step_s <= 0) return Err(Errc::invalid_argument, "step must be > 0");
  if (def.ds.empty()) return Err(Errc::invalid_argument, "need >= 1 data source");
  if (def.rras.empty()) return Err(Errc::invalid_argument, "need >= 1 archive");
  for (const DsDef& ds : def.ds) {
    if (ds.heartbeat_s <= 0) {
      return Err(Errc::invalid_argument, "heartbeat must be > 0");
    }
  }
  for (const RraDef& rra : def.rras) {
    if (rra.rows == 0 || rra.pdp_per_row == 0) {
      return Err(Errc::invalid_argument, "archive needs rows and pdp_per_row");
    }
    if (rra.xff < 0.0 || rra.xff >= 1.0) {
      return Err(Errc::invalid_argument, "xff must be in [0, 1)");
    }
    // Every time computation multiplies step, pdp_per_row and rows; an
    // archive whose whole span overflows int64 has no valid timeline.
    std::int64_t span = 0;
    if (__builtin_mul_overflow(def.step_s,
                               static_cast<std::int64_t>(rra.pdp_per_row),
                               &span) ||
        __builtin_mul_overflow(span, static_cast<std::int64_t>(rra.rows),
                               &span)) {
      return Err(Errc::invalid_argument, "archive span overflows int64");
    }
  }

  // The block's regions sit back to back; every element is 8-byte aligned
  // and a multiple of 8 bytes long, so each region starts aligned.
  static_assert(alignof(PdpScratch) == 8 && sizeof(PdpScratch) % 8 == 0 &&
                alignof(RraCursor) == 8 && sizeof(RraCursor) % 8 == 0 &&
                alignof(CdpScratch) == 8 && sizeof(CdpScratch) % 8 == 0);
  RoundRobinDb db;
  db.def_ = std::move(shared);
  const std::size_t n = def.ds.size();
  const std::size_t ring_values = db.ring_start(def.rras.size());
  db.block_ = std::make_unique_for_overwrite<std::byte[]>(
      db.ring_offset() + ring_values * sizeof(double));
  std::fill_n(db.pdp(), n, PdpScratch{});
  std::fill_n(db.last_pdp(), n, unknown());
  std::fill_n(db.cdp(0), def.rras.size() * n, CdpScratch{});
  std::fill_n(db.rings(), ring_values, unknown());
  db.last_update_ = created_at;
  db.pdp_start_ = align_down(created_at, def.step_s);
  for (std::size_t r = 0; r < def.rras.size(); ++r) {
    const std::int64_t span =
        def.step_s * static_cast<std::int64_t>(def.rras[r].pdp_per_row);
    db.cursors()[r] = RraCursor{0, 0, align_down(created_at, span)};
  }
  return db;
}

std::size_t RoundRobinDb::last_pdp_offset() const noexcept {
  return def_->ds.size() * sizeof(PdpScratch);
}

std::size_t RoundRobinDb::cursor_offset() const noexcept {
  return last_pdp_offset() + def_->ds.size() * sizeof(double);
}

std::size_t RoundRobinDb::cdp_offset() const noexcept {
  return cursor_offset() + def_->rras.size() * sizeof(RraCursor);
}

std::size_t RoundRobinDb::ring_offset() const noexcept {
  return cdp_offset() +
         def_->rras.size() * def_->ds.size() * sizeof(CdpScratch);
}

std::size_t RoundRobinDb::ring_start(std::size_t rra) const noexcept {
  std::size_t values = 0;
  for (std::size_t r = 0; r < rra; ++r) values += def_->rras[r].rows;
  return values * def_->ds.size();
}

Status RoundRobinDb::update(std::int64_t t, std::span<const double> values) {
  const RrdDef& def = *def_;
  if (values.size() != def.ds.size()) {
    return Err(Errc::invalid_argument,
               "expected " + std::to_string(def.ds.size()) + " values, got " +
                   std::to_string(values.size()));
  }
  if (t <= last_update_) {
    return Err(Errc::invalid_argument,
               "update time " + std::to_string(t) +
                   " not after last update " + std::to_string(last_update_));
  }
  ++update_count_;

  const std::int64_t interval = t - last_update_;
  const std::size_t n = def.ds.size();
  PdpScratch* scratch = pdp();

  // Per-DS effective rate/value over (last_update_, t] and knownness.
  // Stack buffers for the common 1–2 ds case (metric, or sum+num): the
  // update hot path must not touch the heap.  Fully overwritten below.
  double rate_small[kInlineDs];
  std::uint8_t known_small[kInlineDs];
  std::vector<double> rate_big;
  std::vector<std::uint8_t> known_big;
  double* rate = rate_small;
  std::uint8_t* known = known_small;
  if (n > kInlineDs) {
    rate_big.resize(n);
    known_big.resize(n);
    rate = rate_big.data();
    known = known_big.data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const DsDef& ds = def.ds[i];
    double v = values[i];
    bool k = !is_unknown(v) && interval <= ds.heartbeat_s;
    if (ds.type == DsType::counter) {
      const double prev = scratch[i].last_raw;
      if (!is_unknown(values[i])) scratch[i].last_raw = values[i];
      if (k && !is_unknown(prev) && v >= prev) {
        v = (v - prev) / static_cast<double>(interval);
      } else {
        k = false;  // first sample, reset, or wrap: unknown interval
      }
    }
    if (k) {
      if (!is_unknown(ds.min_value) && v < ds.min_value) k = false;
      if (!is_unknown(ds.max_value) && v > ds.max_value) k = false;
    }
    rate[i] = v;
    known[i] = k ? 1 : 0;
  }

  advance_to(t, std::span<const double>(rate, n),
             std::span<const std::uint8_t>(known, n));
  last_update_ = t;
  return {};
}

void RoundRobinDb::advance_to(std::int64_t t, std::span<const double> rates,
                              std::span<const std::uint8_t> known) {
  const std::int64_t step = def_->step_s;
  std::int64_t covered_from = last_update_;
  const std::size_t n = def_->ds.size();
  PdpScratch* scratch = pdp();
  double* last = last_pdp();
  double pdp_small[kInlineDs];
  std::vector<double> pdp_big;
  double* pdp_values = pdp_small;
  if (n > kInlineDs) {
    pdp_big.resize(n);
    pdp_values = pdp_big.data();
  }

  // Complete every PDP period that ends at or before t.
  while (pdp_start_ + step <= t) {
    const std::int64_t pdp_end = pdp_start_ + step;
    const std::int64_t seg = pdp_end - std::max(covered_from, pdp_start_);
    for (std::size_t i = 0; i < n; ++i) {
      if (known[i] && seg > 0) {
        scratch[i].weighted_sum += rates[i] * static_cast<double>(seg);
        scratch[i].known_s += seg;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      // PDP unknown when less than half the step was known (rrdtool rule).
      if (scratch[i].known_s * 2 >= step) {
        pdp_values[i] =
            scratch[i].weighted_sum / static_cast<double>(scratch[i].known_s);
      } else {
        pdp_values[i] = unknown();
      }
      scratch[i].weighted_sum = 0;
      scratch[i].known_s = 0;
      last[i] = pdp_values[i];
    }
    commit_pdp(pdp_end, std::span<const double>(pdp_values, n));
    covered_from = pdp_end;
    pdp_start_ = pdp_end;
  }

  // Partial segment into the still-open PDP period.
  const std::int64_t seg = t - std::max(covered_from, pdp_start_);
  if (seg > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (known[i]) {
        scratch[i].weighted_sum += rates[i] * static_cast<double>(seg);
        scratch[i].known_s += seg;
      }
    }
  }
}

void RoundRobinDb::commit_pdp(std::int64_t pdp_end,
                              std::span<const double> pdp_values) {
  const std::size_t n = def_->ds.size();
  RraCursor* cursor = cursors();
  CdpScratch* cdps = cdp(0);
  double* ring = rings();
  for (const RraDef& rra : def_->rras) {
    for (std::size_t i = 0; i < n; ++i) {
      CdpScratch& c = cdps[i];
      const double v = pdp_values[i];
      if (is_unknown(v)) {
        ++c.unknown_count;
      } else if (is_unknown(c.agg)) {
        c.agg = v;
      } else {
        switch (rra.cf) {
          case ConsolidationFn::average: c.agg += v; break;
          case ConsolidationFn::min: c.agg = std::min(c.agg, v); break;
          case ConsolidationFn::max: c.agg = std::max(c.agg, v); break;
          case ConsolidationFn::last: c.agg = v; break;
        }
      }
    }
    if (++cursor->pdp_count >= rra.pdp_per_row) {
      // Commit a row.
      for (std::size_t i = 0; i < n; ++i) {
        CdpScratch& c = cdps[i];
        const std::uint32_t known_count = rra.pdp_per_row - c.unknown_count;
        double row = unknown();
        const double unknown_fraction =
            static_cast<double>(c.unknown_count) /
            static_cast<double>(rra.pdp_per_row);
        if (known_count > 0 && unknown_fraction <= rra.xff) {
          row = rra.cf == ConsolidationFn::average
                    ? c.agg / static_cast<double>(known_count)
                    : c.agg;
        }
        ring[static_cast<std::size_t>(cursor->cur_row) * n + i] = row;
        c = CdpScratch{};
      }
      cursor->pdp_count = 0;
      cursor->cur_row = (cursor->cur_row + 1) % rra.rows;
      cursor->last_row_time = pdp_end;
    }
    ++cursor;
    cdps += n;
    ring += static_cast<std::size_t>(rra.rows) * n;
  }
}

Result<Series> RoundRobinDb::fetch(ConsolidationFn cf, std::int64_t start,
                                   std::int64_t end,
                                   std::size_t ds_index) const {
  if (ds_index >= def_->ds.size()) {
    return Err(Errc::invalid_argument, "no such data source");
  }
  if (end <= start) return Err(Errc::invalid_argument, "end must be > start");

  const std::size_t r = pick_rra(cf, start);
  if (r == def_->rras.size()) {
    return Err(Errc::not_found,
               std::string("no archive with CF ") + std::string(cf_name(cf)));
  }
  const RraDef& rra = def_->rras[r];
  const RraCursor& cursor = cursors()[r];
  const double* ring = rings() + ring_start(r);

  const std::int64_t span =
      def_->step_s * static_cast<std::int64_t>(rra.pdp_per_row);
  const std::int64_t first_end = align_down(start, span) + span;
  std::int64_t last_end = align_down(end - 1, span) + span;

  Series series;
  series.cf = cf;
  series.step = span;
  series.start = first_end - span;
  series.end = last_end;
  const std::int64_t oldest =
      cursor.last_row_time - span * static_cast<std::int64_t>(rra.rows);
  const std::size_t n = def_->ds.size();
  for (std::int64_t row_end = first_end; row_end <= last_end; row_end += span) {
    double v = unknown();
    if (row_end > oldest && row_end <= cursor.last_row_time) {
      const std::int64_t rows_back = (cursor.last_row_time - row_end) / span;
      const std::int64_t rows_total = static_cast<std::int64_t>(rra.rows);
      std::int64_t idx =
          (static_cast<std::int64_t>(cursor.cur_row) - 1 - rows_back) %
          rows_total;
      if (idx < 0) idx += rows_total;
      v = ring[static_cast<std::size_t>(idx) * n + ds_index];
    }
    series.values.push_back(v);
  }
  return series;
}

std::size_t RoundRobinDb::pick_rra(ConsolidationFn cf,
                                   std::int64_t start) const {
  // Finest archive with matching CF that still covers `start`; fall back to
  // the coarsest matching archive when none reaches that far back.
  const std::vector<RraDef>& rras = def_->rras;
  const std::size_t none = rras.size();
  std::size_t best = none;
  std::size_t coarsest = none;
  for (std::size_t r = 0; r < rras.size(); ++r) {
    const RraDef& rra = rras[r];
    if (rra.cf != cf) continue;
    const std::int64_t span =
        def_->step_s * static_cast<std::int64_t>(rra.pdp_per_row);
    const std::int64_t oldest = cursors()[r].last_row_time -
                                span * static_cast<std::int64_t>(rra.rows);
    if (coarsest == none || rra.pdp_per_row > rras[coarsest].pdp_per_row) {
      coarsest = r;
    }
    if (oldest <= start &&
        (best == none || rra.pdp_per_row < rras[best].pdp_per_row)) {
      best = r;
    }
  }
  return best != none ? best : coarsest;
}

Result<WindowAgg> RoundRobinDb::reduce(ConsolidationFn cf, std::int64_t start,
                                       std::int64_t end,
                                       std::size_t ds_index) const {
  if (ds_index >= def_->ds.size()) {
    return Err(Errc::invalid_argument, "no such data source");
  }
  if (end <= start) return Err(Errc::invalid_argument, "end must be > start");

  const std::size_t r = pick_rra(cf, start);
  if (r == def_->rras.size()) {
    return Err(Errc::not_found,
               std::string("no archive with CF ") + std::string(cf_name(cf)));
  }
  const RraDef& rra = def_->rras[r];
  const RraCursor& cursor = cursors()[r];
  const double* ring = rings() + ring_start(r);

  // Same window walk as fetch(), folding each row into the running sums
  // instead of appending it to a vector.
  const std::int64_t span =
      def_->step_s * static_cast<std::int64_t>(rra.pdp_per_row);
  const std::int64_t first_end = align_down(start, span) + span;
  const std::int64_t last_end = align_down(end - 1, span) + span;
  const std::int64_t oldest =
      cursor.last_row_time - span * static_cast<std::int64_t>(rra.rows);
  const std::size_t n = def_->ds.size();

  WindowAgg agg;
  agg.step = span;
  for (std::int64_t row_end = first_end; row_end <= last_end; row_end += span) {
    ++agg.rows;
    if (row_end <= oldest || row_end > cursor.last_row_time) continue;
    const std::int64_t rows_back = (cursor.last_row_time - row_end) / span;
    const std::int64_t rows_total = static_cast<std::int64_t>(rra.rows);
    std::int64_t idx =
        (static_cast<std::int64_t>(cursor.cur_row) - 1 - rows_back) %
        rows_total;
    if (idx < 0) idx += rows_total;
    const double v = ring[static_cast<std::size_t>(idx) * n + ds_index];
    if (is_unknown(v)) continue;
    ++agg.known;
    agg.sum += v;
    if (v < agg.min) agg.min = v;
    if (v > agg.max) agg.max = v;
  }
  return agg;
}

double RoundRobinDb::last_value(std::size_t ds_index) const {
  if (ds_index >= def_->ds.size()) return unknown();
  return last_pdp()[ds_index];
}

std::size_t RoundRobinDb::storage_bytes() const noexcept {
  return ring_start(def_->rras.size()) * sizeof(double);
}

}  // namespace ganglia::rrd
