#include "fed/apply.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/strings.hpp"
#include "fed/codec.hpp"
#include "net/framing.hpp"

namespace ganglia::fed {

namespace {

std::uint32_t sat_add_u32(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t s = static_cast<std::uint64_t>(a) + b;
  return s > std::numeric_limits<std::uint32_t>::max()
             ? std::numeric_limits<std::uint32_t>::max()
             : static_cast<std::uint32_t>(s);
}

bool valid_type(std::uint8_t t) {
  return t <= static_cast<std::uint8_t>(MetricType::timestamp);
}
bool valid_slope(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(Slope::unspecified);
}

bool get_u32(net::WireReader& r, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!r.get_varint(v) || v > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool get_string_into(net::WireReader& r, std::string& out) {
  std::string_view s;
  if (!r.get_string(s, kMaxStringBytes)) return false;
  out.assign(s);
  return true;
}

/// Add a zigzag-coded delta to `field`, refusing int64 overflow.
bool add_delta(net::WireReader& r, std::int64_t& field) {
  std::uint64_t z = 0;
  return r.get_varint(z) &&
         !__builtin_add_overflow(field, unzigzag(z), &field);
}

/// Cursor into the report being mutated.  Grids and clusters are held as
/// indices (vectors reallocate on append); hosts live in a std::map whose
/// nodes are stable, so a plain pointer is safe.
class Applier {
 public:
  Applier(Report& doc, std::vector<std::string>& names)
      : doc_(doc), names_(names) {
    for (const std::string& name : names_) name_bytes_ += name.size();
  }

  Status apply(std::string_view rows, std::size_t* applied) {
    net::WireReader r(rows);
    std::size_t count = 0;
    while (!r.done()) {
      std::uint8_t tag = 0;
      if (!r.get_u8(tag)) break;
      if (!apply_row(tag, r)) {
        return Err(Errc::parse_error, "malformed delta row");
      }
      ++count;
    }
    if (r.failed()) return Err(Errc::parse_error, "truncated delta row");
    if (applied != nullptr) *applied = count;
    return Status::success();
  }

 private:
  Grid* cur_grid() {
    Grid* g = nullptr;
    std::vector<Grid>* level = &doc_.grids;
    for (std::size_t idx : grid_path_) {
      if (idx >= level->size()) return nullptr;  // unreachable if rows valid
      g = &(*level)[idx];
      level = &g->grids;
    }
    return g;
  }
  std::vector<Cluster>& clusters() {
    Grid* g = cur_grid();
    return g != nullptr ? g->clusters : doc_.clusters;
  }
  std::vector<Grid>& grids() {
    Grid* g = cur_grid();
    return g != nullptr ? g->grids : doc_.grids;
  }
  Cluster* cur_cluster() {
    if (cluster_idx_ < 0) return nullptr;
    auto& cs = clusters();
    const auto idx = static_cast<std::size_t>(cluster_idx_);
    return idx < cs.size() ? &cs[idx] : nullptr;
  }
  /// Summary rows bind to the selected cluster, else the current grid.
  SummaryInfo* summary_target() {
    if (Cluster* c = cur_cluster()) {
      if (!c->summary) c->summary.emplace();
      return &*c->summary;
    }
    if (Grid* g = cur_grid()) {
      if (!g->summary) g->summary.emplace();
      return &*g->summary;
    }
    return nullptr;
  }
  void deselect_cluster() {
    cluster_idx_ = -1;
    host_ = nullptr;
  }

  bool name_for(std::uint64_t id, const std::string** out) const {
    if (id >= names_.size()) return false;
    *out = &names_[static_cast<std::size_t>(id)];
    return true;
  }

  /// Mirror the XML parser: numeric metrics re-derive `numeric` from the
  /// VAL text (rejecting unparsable values), strings keep numeric = 0.
  static bool rederive_numeric(Metric& m) {
    if (!m.is_numeric()) {
      m.numeric = 0.0;
      return true;
    }
    auto num = parse_double(m.value);
    if (!num) return false;
    m.numeric = *num;
    return true;
  }

  bool apply_row(std::uint8_t tag, net::WireReader& r) {
    switch (tag) {
      case kRowDefineName: {
        std::uint64_t id = 0;
        std::string_view name;
        if (!r.get_varint(id) || !r.get_string(name, kMaxStringBytes)) {
          return false;
        }
        if (id != names_.size() ||
            !dict_admits(names_.size(), name_bytes_, name.size())) {
          return false;
        }
        names_.emplace_back(name);
        name_bytes_ += name.size();
        return true;
      }
      case kRowReportAttrs: {
        std::string_view version;
        std::string_view source;
        if (!r.get_string(version, kMaxStringBytes) ||
            !r.get_string(source, kMaxStringBytes)) {
          return false;
        }
        doc_.version.assign(version);
        doc_.source.assign(source);
        return true;
      }
      case kRowGridPush: {
        std::string_view name;
        if (!r.get_string(name, kMaxStringBytes)) return false;
        auto& gs = grids();
        std::size_t idx = gs.size();
        for (std::size_t i = 0; i < gs.size(); ++i) {
          if (gs[i].name == name) {
            idx = i;
            break;
          }
        }
        if (idx == gs.size()) {
          Grid g;
          g.name.assign(name);
          gs.push_back(std::move(g));
        }
        grid_path_.push_back(idx);
        deselect_cluster();
        return true;
      }
      case kRowGridPop:
        if (grid_path_.empty()) return false;
        grid_path_.pop_back();
        deselect_cluster();
        return true;
      case kRowGridAttrs: {
        std::string_view authority;
        std::uint64_t localtime = 0;
        if (!r.get_string(authority, kMaxStringBytes) ||
            !r.get_varint(localtime)) {
          return false;
        }
        Grid* g = cur_grid();
        if (g == nullptr) return false;
        g->authority.assign(authority);
        g->localtime = static_cast<std::int64_t>(localtime);
        return true;
      }
      case kRowGridRemove: {
        std::string_view name;
        if (!r.get_string(name, kMaxStringBytes)) return false;
        auto& gs = grids();
        auto it = std::find_if(gs.begin(), gs.end(),
                               [&](const Grid& g) { return g.name == name; });
        if (it == gs.end()) return false;
        gs.erase(it);
        return true;
      }
      case kRowCluster: {
        std::string_view name;
        if (!r.get_string(name, kMaxStringBytes)) return false;
        auto& cs = clusters();
        std::size_t idx = cs.size();
        for (std::size_t i = 0; i < cs.size(); ++i) {
          if (cs[i].name == name) {
            idx = i;
            break;
          }
        }
        if (idx == cs.size()) {
          Cluster c;
          c.name.assign(name);
          cs.push_back(std::move(c));
        }
        cluster_idx_ = static_cast<std::ptrdiff_t>(idx);
        host_ = nullptr;
        return true;
      }
      case kRowClusterAttrs: {
        std::uint64_t localtime = 0;
        std::string_view owner;
        std::string_view latlong;
        std::string_view url;
        if (!r.get_varint(localtime) || !r.get_string(owner, kMaxStringBytes) ||
            !r.get_string(latlong, kMaxStringBytes) ||
            !r.get_string(url, kMaxStringBytes)) {
          return false;
        }
        Cluster* c = cur_cluster();
        if (c == nullptr) return false;
        c->localtime = static_cast<std::int64_t>(localtime);
        c->owner.assign(owner);
        c->latlong.assign(latlong);
        c->url.assign(url);
        return true;
      }
      case kRowClusterRemove: {
        std::string_view name;
        if (!r.get_string(name, kMaxStringBytes)) return false;
        auto& cs = clusters();
        auto it = std::find_if(cs.begin(), cs.end(),
                               [&](const Cluster& c) { return c.name == name; });
        if (it == cs.end()) return false;
        const auto idx = static_cast<std::ptrdiff_t>(it - cs.begin());
        if (idx == cluster_idx_) deselect_cluster();
        if (idx < cluster_idx_) --cluster_idx_;
        cs.erase(it);
        return true;
      }
      case kRowAdvance: {
        std::uint64_t dt = 0;
        if (!r.get_varint(dt) ||
            dt > std::numeric_limits<std::uint32_t>::max()) {
          return false;
        }
        Cluster* c = cur_cluster();
        if (c == nullptr || c->summary.has_value()) return false;
        const auto d = static_cast<std::uint32_t>(dt);
        for (auto& [name, h] : c->hosts) {
          h.tn = sat_add_u32(h.tn, d);
          for (Metric& m : h.metrics) m.tn = sat_add_u32(m.tn, d);
        }
        return true;
      }
      case kRowHost: {
        std::uint64_t id = 0;
        const std::string* name = nullptr;
        if (!r.get_varint(id) || !name_for(id, &name)) return false;
        Cluster* c = cur_cluster();
        if (c == nullptr) return false;
        auto [it, inserted] = c->hosts.try_emplace(*name);
        if (inserted) it->second.name = *name;
        host_ = &it->second;
        return true;
      }
      case kRowHostAttrs: {
        std::uint8_t mask = 0;
        if (!r.get_u8(mask) || mask == 0 || (mask & ~kHostFields) != 0 ||
            host_ == nullptr) {
          return false;
        }
        Host& h = *host_;
        return ((mask & kHostIp) == 0 || get_string_into(r, h.ip)) &&
               ((mask & kHostReported) == 0 || add_delta(r, h.reported)) &&
               ((mask & kHostTn) == 0 || get_u32(r, h.tn)) &&
               ((mask & kHostTmax) == 0 || get_u32(r, h.tmax)) &&
               ((mask & kHostDmax) == 0 || get_u32(r, h.dmax)) &&
               ((mask & kHostLocation) == 0 ||
                get_string_into(r, h.location)) &&
               ((mask & kHostStarted) == 0 || add_delta(r, h.gmond_started));
      }
      case kRowHostRemove: {
        std::uint64_t id = 0;
        const std::string* name = nullptr;
        if (!r.get_varint(id) || !name_for(id, &name)) return false;
        Cluster* c = cur_cluster();
        if (c == nullptr) return false;
        auto it = c->hosts.find(*name);
        if (it == c->hosts.end()) return false;
        if (host_ == &it->second) host_ = nullptr;
        c->hosts.erase(it);
        return true;
      }
      case kRowMetric: {
        std::uint64_t id = 0;
        std::uint8_t type = 0;
        std::uint8_t slope = 0;
        std::string_view units;
        std::string_view source;
        std::uint64_t tn = 0;
        std::uint64_t tmax = 0;
        std::uint64_t dmax = 0;
        if (!r.get_varint(id) || !r.get_u8(type) || !get_value(r, value_) ||
            !r.get_string(units, kMaxStringBytes) || !r.get_varint(tn) ||
            !r.get_varint(tmax) || !r.get_varint(dmax) || !r.get_u8(slope) ||
            !r.get_string(source, kMaxStringBytes)) {
          return false;
        }
        const std::string* name = nullptr;
        if (!name_for(id, &name) || host_ == nullptr || !valid_type(type) ||
            !valid_slope(slope) ||
            tn > std::numeric_limits<std::uint32_t>::max() ||
            tmax > std::numeric_limits<std::uint32_t>::max() ||
            dmax > std::numeric_limits<std::uint32_t>::max()) {
          return false;
        }
        Metric* m = host_->find_metric(*name);
        if (m == nullptr) {
          host_->metrics.emplace_back();
          m = &host_->metrics.back();
          m->name = *name;
        }
        m->type = static_cast<MetricType>(type);
        m->value = value_;
        m->units.assign(units);
        m->tn = static_cast<std::uint32_t>(tn);
        m->tmax = static_cast<std::uint32_t>(tmax);
        m->dmax = static_cast<std::uint32_t>(dmax);
        m->slope = static_cast<Slope>(slope);
        m->source.assign(source);
        return rederive_numeric(*m);
      }
      case kRowMetricValue: {
        std::uint64_t id = 0;
        std::uint64_t tn = 0;
        if (!r.get_varint(id) || !get_value(r, value_) || !r.get_varint(tn)) {
          return false;
        }
        const std::string* name = nullptr;
        if (!name_for(id, &name) || host_ == nullptr ||
            tn > std::numeric_limits<std::uint32_t>::max()) {
          return false;
        }
        Metric* m = host_->find_metric(*name);
        if (m == nullptr) return false;
        m->value = value_;
        m->tn = static_cast<std::uint32_t>(tn);
        return rederive_numeric(*m);
      }
      case kRowMetricTn: {
        std::uint64_t id = 0;
        std::uint64_t tn = 0;
        if (!r.get_varint(id) || !r.get_varint(tn)) return false;
        const std::string* name = nullptr;
        if (!name_for(id, &name) || host_ == nullptr ||
            tn > std::numeric_limits<std::uint32_t>::max()) {
          return false;
        }
        Metric* m = host_->find_metric(*name);
        if (m == nullptr) return false;
        m->tn = static_cast<std::uint32_t>(tn);
        return true;
      }
      case kRowMetricRemove: {
        std::uint64_t id = 0;
        if (!r.get_varint(id)) return false;
        const std::string* name = nullptr;
        if (!name_for(id, &name) || host_ == nullptr) return false;
        auto& ms = host_->metrics;
        auto it = std::find_if(ms.begin(), ms.end(), [&](const Metric& m) {
          return m.name == *name;
        });
        if (it == ms.end()) return false;
        ms.erase(it);
        return true;
      }
      case kRowSummaryHosts: {
        std::uint64_t up = 0;
        std::uint64_t down = 0;
        if (!r.get_varint(up) || !r.get_varint(down) ||
            up > std::numeric_limits<std::uint32_t>::max() ||
            down > std::numeric_limits<std::uint32_t>::max()) {
          return false;
        }
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        s->hosts_up = static_cast<std::uint32_t>(up);
        s->hosts_down = static_cast<std::uint32_t>(down);
        return true;
      }
      case kRowSummaryMetric: {
        std::uint64_t id = 0;
        double sum = 0.0;
        std::uint64_t num = 0;
        std::uint8_t type = 0;
        std::string_view units;
        if (!r.get_varint(id) || !r.get_f64(sum) || !r.get_varint(num) ||
            !r.get_u8(type) || !r.get_string(units, kMaxStringBytes)) {
          return false;
        }
        const std::string* name = nullptr;
        if (!name_for(id, &name) || !valid_type(type)) return false;
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        MetricSummary& ms = s->metrics[*name];
        ms.sum = sum;
        ms.num = num;
        ms.type = static_cast<MetricType>(type);
        ms.units.assign(units);
        return true;
      }
      case kRowSummaryMetricRemove: {
        std::uint64_t id = 0;
        if (!r.get_varint(id)) return false;
        const std::string* name = nullptr;
        if (!name_for(id, &name)) return false;
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        return s->metrics.erase(*name) != 0;
      }
      case kRowSummaryClear: {
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        *s = SummaryInfo{};
        return true;
      }
      default:
        return false;
    }
  }

  Report& doc_;
  std::vector<std::string>& names_;
  std::size_t name_bytes_ = 0;  ///< sum of the lengths in names_
  std::string value_;           ///< the VAL being decoded
  std::vector<std::size_t> grid_path_;
  std::ptrdiff_t cluster_idx_ = -1;
  Host* host_ = nullptr;
};

}  // namespace

Status apply_rows(Report& doc, std::string_view rows,
                  std::vector<std::string>& names, std::size_t* applied) {
  return Applier(doc, names).apply(rows, applied);
}

}  // namespace ganglia::fed
