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
  Applier(Report& doc, Names& names) : doc_(doc), names_(names) {
    for (const std::string& name : names_.hosts) host_bytes_ += name.size();
    for (const std::string& name : names_.metrics) {
      metric_bytes_ += name.size();
    }
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

  static bool name_for(const std::vector<std::string>& names,
                       std::uint64_t id, const std::string** out) {
    if (id >= names.size()) return false;
    *out = &names[static_cast<std::size_t>(id)];
    return true;
  }
  bool host_name(std::uint64_t id, const std::string** out) const {
    return name_for(names_.hosts, id, out);
  }
  bool metric_name(std::uint64_t id, const std::string** out) const {
    return name_for(names_.metrics, id, out);
  }

  /// Mirror the XML parser: a numeric metric's `numeric` is its VAL text
  /// parsed (an unparsable VAL is refused), a string's is 0.
  static bool numeric_of(const Metric& m, std::string_view value,
                         double& numeric) {
    if (!m.is_numeric()) {
      numeric = 0.0;
      return true;
    }
    auto num = parse_double(value);
    if (!num) return false;
    numeric = *num;
    return true;
  }
  static bool rederive_numeric(Metric& m) {
    return numeric_of(m, m.value, m.numeric);
  }

  /// One metric change of a host record, decoded and checked before the
  /// record changes anything.
  struct Entry {
    Metric* metric = nullptr;
    bool has_value = false;
    std::string value;
    double numeric = 0.0;
    std::uint32_t tn = 0;
  };

  /// Decode one record entry of `host` into `e`, refusing a metric an
  /// earlier entry of the record named (seen_).
  bool decode_entry(net::WireReader& r, Host& host, Entry& e) {
    std::uint64_t head = 0;
    const std::string* name = nullptr;
    if (!r.get_varint(head) || !metric_name(head >> kEntryKindBits, &name)) {
      return false;
    }
    const auto it =
        std::find_if(host.metrics.begin(), host.metrics.end(),
                     [name](const Metric& m) { return m.name == *name; });
    if (it == host.metrics.end()) return false;
    const auto index = static_cast<std::size_t>(it - host.metrics.begin());
    if (seen_[index]) return false;
    seen_[index] = true;
    const std::uint64_t kind = head & ((1u << kEntryKindBits) - 1);
    e.metric = &*it;
    e.has_value = kind != kEntryTn;
    if (kind == kEntryDigits) {
      const std::uint8_t form = value_form(it->value);
      if (form == kValText || !get_digits(r, form, e.value)) return false;
    } else if (kind == kEntryValue) {
      if (!get_value(r, e.value)) return false;
    } else if (kind != kEntryTn) {
      return false;
    }
    return get_u32(r, e.tn) &&
           (!e.has_value || numeric_of(*it, e.value, e.numeric));
  }

  /// kRowHost: decode and check the whole record against the host it
  /// selects, then apply it.
  bool apply_host(net::WireReader& r) {
    static const Host kAppended;
    std::uint64_t id = 0;
    std::uint8_t mask = 0;
    const std::string* name = nullptr;
    Cluster* c = cur_cluster();
    if (!r.get_varint(id) || !host_name(id, &name) || c == nullptr ||
        !r.get_u8(mask) || (mask & ~kHostFields) != 0) {
      return false;
    }
    const auto found = c->hosts.find(*name);
    Host* existing = found == c->hosts.end() ? nullptr : &found->second;
    const Host& base = existing != nullptr ? *existing : kAppended;
    std::string_view ip;
    std::string_view location;
    std::int64_t reported = base.reported;
    std::int64_t started = base.gmond_started;
    std::uint32_t tn = 0;
    std::uint32_t tmax = base.tmax;
    std::uint32_t dmax = base.dmax;
    std::uint64_t count = 0;
    if (((mask & kHostIp) != 0 && !r.get_string(ip, kMaxStringBytes)) ||
        ((mask & kHostReported) != 0 && !add_delta(r, reported)) ||
        ((mask & kHostTn) != 0 && !get_u32(r, tn)) ||
        ((mask & kHostTmax) != 0 && !get_u32(r, tmax)) ||
        ((mask & kHostDmax) != 0 && !get_u32(r, dmax)) ||
        ((mask & kHostLocation) != 0 &&
         !r.get_string(location, kMaxStringBytes)) ||
        ((mask & kHostStarted) != 0 && !add_delta(r, started)) ||
        !r.get_varint(count) ||
        count > (existing != nullptr ? existing->metrics.size() : 0)) {
      return false;
    }
    if ((mask & kHostTn) == 0) tn = implied_host_tn(c->localtime, reported);
    if (count > entries_.size()) entries_.resize(count);
    if (existing != nullptr) seen_.assign(existing->metrics.size(), false);
    for (std::size_t i = 0; i < count; ++i) {
      if (!decode_entry(r, *existing, entries_[i])) return false;
    }

    Host* h = existing;
    if (h == nullptr) {
      h = &c->hosts[*name];
      h->name = *name;
    }
    if ((mask & kHostIp) != 0) h->ip.assign(ip);
    if ((mask & kHostLocation) != 0) h->location.assign(location);
    h->reported = reported;
    h->gmond_started = started;
    h->tn = tn;
    h->tmax = tmax;
    h->dmax = dmax;
    for (std::size_t i = 0; i < count; ++i) {
      Entry& e = entries_[i];
      if (e.has_value) {
        e.metric->value.swap(e.value);
        e.metric->numeric = e.numeric;
      }
      e.metric->tn = e.tn;
    }
    host_ = h;
    return true;
  }

  bool apply_row(std::uint8_t tag, net::WireReader& r) {
    switch (tag) {
      case kRowDefineName: {
        std::uint64_t key = 0;
        std::string_view name;
        if (!r.get_varint(key) || !r.get_string(name, kMaxStringBytes)) {
          return false;
        }
        const bool host = (key & 1) == kSpaceHost;
        std::vector<std::string>& names = host ? names_.hosts : names_.metrics;
        std::size_t& bytes = host ? host_bytes_ : metric_bytes_;
        if (key >> 1 != names.size() ||
            !dict_admits(names.size(), bytes, name.size())) {
          return false;
        }
        names.emplace_back(name);
        bytes += name.size();
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
        std::uint8_t mask = 0;
        Grid* g = cur_grid();
        if (!r.get_u8(mask) || mask == 0 || (mask & ~kGridFields) != 0 ||
            g == nullptr) {
          return false;
        }
        std::string_view authority;
        std::int64_t localtime = g->localtime;
        if (((mask & kGridAuthority) != 0 &&
             !r.get_string(authority, kMaxStringBytes)) ||
            ((mask & kGridLocaltime) != 0 && !add_delta(r, localtime))) {
          return false;
        }
        if ((mask & kGridAuthority) != 0) g->authority.assign(authority);
        g->localtime = localtime;
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
        std::uint8_t mask = 0;
        Cluster* c = cur_cluster();
        if (!r.get_u8(mask) || mask == 0 || (mask & ~kClusterFields) != 0 ||
            c == nullptr) {
          return false;
        }
        std::int64_t localtime = c->localtime;
        std::string_view owner;
        std::string_view latlong;
        std::string_view url;
        if (((mask & kClusterLocaltime) != 0 && !add_delta(r, localtime)) ||
            ((mask & kClusterOwner) != 0 &&
             !r.get_string(owner, kMaxStringBytes)) ||
            ((mask & kClusterLatlong) != 0 &&
             !r.get_string(latlong, kMaxStringBytes)) ||
            ((mask & kClusterUrl) != 0 &&
             !r.get_string(url, kMaxStringBytes))) {
          return false;
        }
        c->localtime = localtime;
        if ((mask & kClusterOwner) != 0) c->owner.assign(owner);
        if ((mask & kClusterLatlong) != 0) c->latlong.assign(latlong);
        if ((mask & kClusterUrl) != 0) c->url.assign(url);
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
      case kRowHost:
        return apply_host(r);
      case kRowHostRemove: {
        std::uint64_t id = 0;
        const std::string* name = nullptr;
        if (!r.get_varint(id) || !host_name(id, &name)) return false;
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
        if (!metric_name(id, &name) || host_ == nullptr || !valid_type(type) ||
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
      case kRowMetricRemove: {
        std::uint64_t id = 0;
        if (!r.get_varint(id)) return false;
        const std::string* name = nullptr;
        if (!metric_name(id, &name) || host_ == nullptr) return false;
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
        if (!metric_name(id, &name) || !valid_type(type)) return false;
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        MetricSummary& ms = s->metrics[*name];
        ms.sum = sum;
        ms.num = num;
        ms.type = static_cast<MetricType>(type);
        ms.units.assign(units);
        return true;
      }
      case kRowSummarySum: {
        std::uint64_t id = 0;
        double sum = 0.0;
        if (!r.get_varint(id) || !r.get_f64(sum)) return false;
        const std::string* name = nullptr;
        if (!metric_name(id, &name)) return false;
        SummaryInfo* s = summary_target();
        if (s == nullptr) return false;
        const auto it = s->metrics.find(*name);
        if (it == s->metrics.end()) return false;
        it->second.sum = sum;
        return true;
      }
      case kRowSummaryMetricRemove: {
        std::uint64_t id = 0;
        if (!r.get_varint(id)) return false;
        const std::string* name = nullptr;
        if (!metric_name(id, &name)) return false;
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
  Names& names_;
  std::size_t host_bytes_ = 0;    ///< sum of the lengths in names_.hosts
  std::size_t metric_bytes_ = 0;  ///< and in names_.metrics
  std::string value_;             ///< the VAL being decoded
  std::vector<Entry> entries_;    ///< the host record being decoded
  std::vector<bool> seen_;        ///< its host's metrics it changes
  std::vector<std::size_t> grid_path_;
  std::ptrdiff_t cluster_idx_ = -1;
  Host* host_ = nullptr;
};

}  // namespace

Status apply_rows(Report& doc, std::string_view rows, Names& names,
                  std::size_t* applied) {
  return Applier(doc, names).apply(rows, applied);
}

}  // namespace ganglia::fed
