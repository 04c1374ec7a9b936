#include "fed/diff.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <map>
#include <string_view>
#include <vector>

namespace ganglia::fed {

namespace {

using net::put_f64;
using net::put_string;
using net::put_u8;
using net::put_varint;

std::uint32_t sat_add_u32(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t s = static_cast<std::uint64_t>(a) + b;
  return s > std::numeric_limits<std::uint32_t>::max()
             ? std::numeric_limits<std::uint32_t>::max()
             : static_cast<std::uint32_t>(s);
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class Differ {
 public:
  Differ(NameDict& dict, RowBuffer& out) : dict_(dict), out_(out) {}

  bool run(const Report& oldr, const Report& newr) {
    if (oldr.version != newr.version || oldr.source != newr.source) {
      check_str(newr.version);
      check_str(newr.source);
      put_u8(out_.bytes, kRowReportAttrs);
      put_string(out_.bytes, newr.version);
      put_string(out_.bytes, newr.source);
      out_.mark_row();
    }
    diff_clusters(oldr.clusters, newr.clusters);
    diff_grids(oldr.grids, newr.grids);
    return !failed_;
  }

 private:
  struct Mark {
    std::size_t bytes;
    std::size_t ends;
    std::size_t names;
  };
  Mark mark() const {
    return {out_.bytes.size(), out_.ends.size(), dict_.size()};
  }
  /// Were the rows since `m` only `selects` select rows and the names
  /// they defined?
  bool only_selects(Mark m, std::size_t selects) const {
    return out_.ends.size() - m.ends == selects + (dict_.size() - m.names);
  }
  void rollback(Mark m) {
    out_.bytes.resize(m.bytes);
    out_.ends.resize(m.ends);
    dict_.truncate(m.names);
  }

  void fail() { failed_ = true; }
  void check_str(const std::string& s) {
    if (s.size() > kMaxStringBytes) fail();
  }

  /// Dictionary-intern `name`, emitting a kRowDefineName row on first use.
  std::uint32_t intern(const std::string& name) {
    if (const auto known = dict_.find(name)) return *known;
    std::uint32_t id = 0;
    if (!dict_.add(name, id)) {
      fail();
      return 0;
    }
    put_u8(out_.bytes, kRowDefineName);
    put_varint(out_.bytes, id);
    put_string(out_.bytes, name);
    out_.mark_row();
    return id;
  }

  /// Verify the select-or-append row semantics can reproduce `newv` from
  /// `oldv`: names unique on both sides, retained names keep their old
  /// relative order, and every addition comes after every retained child.
  /// Fills `old_idx` (name -> index in oldv).
  template <class T>
  bool order_ok(const std::vector<T>& oldv, const std::vector<T>& newv,
                std::map<std::string_view, std::size_t>& old_idx) {
    for (std::size_t i = 0; i < oldv.size(); ++i) {
      if (!old_idx.emplace(oldv[i].name, i).second) return false;
    }
    std::map<std::string_view, std::size_t> new_idx;
    std::size_t last_old = 0;
    bool saw_retained = false;
    bool saw_added = false;
    for (const T& item : newv) {
      if (!new_idx.emplace(item.name, new_idx.size()).second) return false;
      auto it = old_idx.find(item.name);
      if (it == old_idx.end()) {
        saw_added = true;
        continue;
      }
      if (saw_added) return false;  // retained child after an addition
      if (saw_retained && it->second <= last_old) return false;
      last_old = it->second;
      saw_retained = true;
    }
    return true;
  }

  // ---- summaries ----------------------------------------------------------

  void emit_summary_hosts(const SummaryInfo& s) {
    put_u8(out_.bytes, kRowSummaryHosts);
    put_varint(out_.bytes, s.hosts_up);
    put_varint(out_.bytes, s.hosts_down);
    out_.mark_row();
  }

  void emit_summary_metric(const std::string& name, const MetricSummary& m) {
    check_str(m.units);
    const std::uint32_t id = intern(name);
    put_u8(out_.bytes, kRowSummaryMetric);
    put_varint(out_.bytes, id);
    put_f64(out_.bytes, m.sum);
    put_varint(out_.bytes, m.num);
    put_u8(out_.bytes, static_cast<std::uint8_t>(m.type));
    put_string(out_.bytes, m.units);
    out_.mark_row();
  }

  void emit_full_summary(const SummaryInfo& s) {
    emit_summary_hosts(s);
    for (const auto& [name, m] : s.metrics) emit_summary_metric(name, m);
  }

  void diff_summary(const SummaryInfo& o, const SummaryInfo& n) {
    if (o.hosts_up != n.hosts_up || o.hosts_down != n.hosts_down) {
      emit_summary_hosts(n);
    }
    for (const auto& [name, om] : o.metrics) {
      if (n.metrics.find(name) != n.metrics.end()) continue;
      const std::uint32_t id = intern(name);
      put_u8(out_.bytes, kRowSummaryMetricRemove);
      put_varint(out_.bytes, id);
      out_.mark_row();
    }
    for (const auto& [name, nm] : n.metrics) {
      auto it = o.metrics.find(name);
      if (it == o.metrics.end() || it->second.num != nm.num ||
          it->second.type != nm.type || it->second.units != nm.units) {
        emit_summary_metric(name, nm);
      } else if (!bits_equal(it->second.sum, nm.sum)) {
        // The steady state of a summary: only the sum moved.
        const std::uint32_t id = intern(name);
        put_u8(out_.bytes, kRowSummarySum);
        put_varint(out_.bytes, id);
        put_f64(out_.bytes, nm.sum);
        out_.mark_row();
      }
    }
  }

  // ---- metrics ------------------------------------------------------------

  void emit_full_metric(const Metric& m) {
    check_str(m.value);
    check_str(m.units);
    check_str(m.source);
    const std::uint32_t id = intern(m.name);
    put_u8(out_.bytes, kRowMetric);
    put_varint(out_.bytes, id);
    put_u8(out_.bytes, static_cast<std::uint8_t>(m.type));
    put_value(out_.bytes, m.value);
    put_string(out_.bytes, m.units);
    put_varint(out_.bytes, m.tn);
    put_varint(out_.bytes, m.tmax);
    put_varint(out_.bytes, m.dmax);
    put_u8(out_.bytes, static_cast<std::uint8_t>(m.slope));
    put_string(out_.bytes, m.source);
    out_.mark_row();
  }

  void diff_metric(const Metric& o, const Metric& n, std::uint32_t dt) {
    const std::uint32_t predicted_tn = sat_add_u32(o.tn, dt);
    const bool static_same = o.type == n.type && o.units == n.units &&
                             o.tmax == n.tmax && o.dmax == n.dmax &&
                             o.slope == n.slope && o.source == n.source;
    const bool value_same = o.value == n.value;
    const bool tn_same = n.tn == predicted_tn;
    if (static_same && value_same && tn_same) return;
    if (static_same && !value_same) {
      check_str(n.value);
      const std::uint32_t id = intern(n.name);
      put_u8(out_.bytes, kRowMetricValue);
      put_varint(out_.bytes, id);
      put_value(out_.bytes, n.value);
      put_varint(out_.bytes, n.tn);
      out_.mark_row();
      return;
    }
    if (static_same) {  // value same, tn drifted off the advance prediction
      const std::uint32_t id = intern(n.name);
      put_u8(out_.bytes, kRowMetricTn);
      put_varint(out_.bytes, id);
      put_varint(out_.bytes, n.tn);
      out_.mark_row();
      return;
    }
    emit_full_metric(n);
  }

  // ---- hosts --------------------------------------------------------------

  /// Emit the fields of `n` that differ from `o` once its TN has aged by
  /// `dt`, or nothing when none do.
  void emit_host_attrs(const Host& o, const Host& n, std::uint32_t dt) {
    std::int64_t reported = 0;
    std::int64_t started = 0;
    if (__builtin_sub_overflow(n.reported, o.reported, &reported) ||
        __builtin_sub_overflow(n.gmond_started, o.gmond_started, &started)) {
      fail();
      return;
    }
    std::uint8_t mask = 0;
    if (n.ip != o.ip) mask |= kHostIp;
    if (reported != 0) mask |= kHostReported;
    if (n.tn != sat_add_u32(o.tn, dt)) mask |= kHostTn;
    if (n.tmax != o.tmax) mask |= kHostTmax;
    if (n.dmax != o.dmax) mask |= kHostDmax;
    if (n.location != o.location) mask |= kHostLocation;
    if (started != 0) mask |= kHostStarted;
    if (mask == 0) return;
    check_str(n.ip);
    check_str(n.location);
    put_u8(out_.bytes, kRowHostAttrs);
    put_u8(out_.bytes, mask);
    if ((mask & kHostIp) != 0) put_string(out_.bytes, n.ip);
    if ((mask & kHostReported) != 0) put_varint(out_.bytes, zigzag(reported));
    if ((mask & kHostTn) != 0) put_varint(out_.bytes, n.tn);
    if ((mask & kHostTmax) != 0) put_varint(out_.bytes, n.tmax);
    if ((mask & kHostDmax) != 0) put_varint(out_.bytes, n.dmax);
    if ((mask & kHostLocation) != 0) put_string(out_.bytes, n.location);
    if ((mask & kHostStarted) != 0) put_varint(out_.bytes, zigzag(started));
    out_.mark_row();
  }

  void emit_host_select(const std::string& name) {
    const std::uint32_t id = intern(name);
    put_u8(out_.bytes, kRowHost);
    put_varint(out_.bytes, id);
    out_.mark_row();
  }

  /// A new host is diffed against the default-constructed host the
  /// applier's select appends.
  void emit_full_host(const Host& h) {
    static const Host kAppended;
    emit_host_select(h.name);
    emit_host_attrs(kAppended, h, 0);
    for (const Metric& m : h.metrics) emit_full_metric(m);
  }

  /// Do `o` and `n` name the same metrics in the same order?  Then the
  /// metric at each index of `n` pairs with the one at that index of `o`.
  static bool same_order(const Host& o, const Host& n) {
    return std::equal(
        o.metrics.begin(), o.metrics.end(), n.metrics.begin(), n.metrics.end(),
        [](const Metric& a, const Metric& b) { return a.name == b.name; });
  }

  /// Rows address a metric by name, so a host naming one twice has no
  /// faithful delta.  Hosts of one cluster mostly share a metric list, so
  /// a list equal to the last one proven unique needs no sort.
  bool unique_names(const Host& h) {
    if (unique_host_ != nullptr && same_order(*unique_host_, h)) return true;
    sorted_names_.clear();
    for (const Metric& m : h.metrics) sorted_names_.push_back(m.name);
    std::sort(sorted_names_.begin(), sorted_names_.end());
    if (std::adjacent_find(sorted_names_.begin(), sorted_names_.end()) !=
        sorted_names_.end()) {
      return false;
    }
    unique_host_ = &h;
    return true;
  }

  void diff_host(const Host& o, const Host& n, std::uint32_t dt) {
    const Mark m = mark();
    emit_host_select(n.name);
    emit_host_attrs(o, n, dt);
    if (same_order(o, n)) {
      // The steady state: no metric removed, added or moved, so pair by
      // index — the rows the general path below would emit.
      if (!unique_names(n)) {
        fail();
        return;
      }
      for (std::size_t i = 0; i < n.metrics.size(); ++i) {
        diff_metric(o.metrics[i], n.metrics[i], dt);
      }
    } else {
      std::map<std::string_view, std::size_t> old_idx;
      if (!order_ok(o.metrics, n.metrics, old_idx)) {
        fail();
        return;
      }
      for (const Metric& om : o.metrics) {
        if (n.find_metric(om.name) != nullptr) continue;
        const std::uint32_t id = intern(om.name);
        put_u8(out_.bytes, kRowMetricRemove);
        put_varint(out_.bytes, id);
        out_.mark_row();
      }
      for (const Metric& nm : n.metrics) {
        auto it = old_idx.find(nm.name);
        if (it == old_idx.end()) {
          emit_full_metric(nm);
        } else {
          diff_metric(o.metrics[it->second], nm, dt);
        }
      }
    }
    if (only_selects(m, 1)) rollback(m);
  }

  // ---- clusters -----------------------------------------------------------

  void emit_cluster_select(const std::string& name) {
    check_str(name);
    put_u8(out_.bytes, kRowCluster);
    put_string(out_.bytes, name);
    out_.mark_row();
  }

  void emit_cluster_attrs(const Cluster& c) {
    check_str(c.owner);
    check_str(c.latlong);
    check_str(c.url);
    put_u8(out_.bytes, kRowClusterAttrs);
    put_varint(out_.bytes, static_cast<std::uint64_t>(c.localtime));
    put_string(out_.bytes, c.owner);
    put_string(out_.bytes, c.latlong);
    put_string(out_.bytes, c.url);
    out_.mark_row();
  }

  void emit_full_cluster(const Cluster& c) {
    emit_cluster_select(c.name);
    emit_cluster_attrs(c);
    if (c.summary) {
      emit_full_summary(*c.summary);
    } else {
      for (const auto& [name, h] : c.hosts) emit_full_host(h);
    }
  }

  /// Does "everything aged by dt" predict more of the new TNs than
  /// "nothing aged"?  Data-driven: the row is only a compression win, the
  /// differ still emits corrections for every non-matching TN.
  std::uint32_t advance_dt(const Cluster& o, const Cluster& n) const {
    const std::int64_t dt64 = n.localtime - o.localtime;
    if (dt64 <= 0 || dt64 > std::numeric_limits<std::uint32_t>::max()) return 0;
    const auto dt = static_cast<std::uint32_t>(dt64);
    std::size_t advanced = 0;
    std::size_t unchanged = 0;
    auto tally = [&](std::uint32_t old_tn, std::uint32_t new_tn) {
      if (new_tn == sat_add_u32(old_tn, dt)) {
        ++advanced;
      } else if (new_tn == old_tn) {
        ++unchanged;
      }
    };
    for (const auto& [name, nh] : n.hosts) {
      auto it = o.hosts.find(name);
      if (it == o.hosts.end()) continue;
      const Host& oh = it->second;
      tally(oh.tn, nh.tn);
      // Pairing by index matches the name lookup whenever the names are
      // unique; where they are not, diff_host fails the whole delta.
      if (same_order(oh, nh)) {
        for (std::size_t i = 0; i < nh.metrics.size(); ++i) {
          tally(oh.metrics[i].tn, nh.metrics[i].tn);
        }
        continue;
      }
      for (const Metric& nm : nh.metrics) {
        if (const Metric* om = oh.find_metric(nm.name)) tally(om->tn, nm.tn);
      }
    }
    return advanced > unchanged ? dt : 0;
  }

  void diff_cluster(const Cluster& o, const Cluster& n) {
    if (o.summary.has_value() != n.summary.has_value()) {
      fail();  // summary/detail form flip: resync
      return;
    }
    const Mark m = mark();
    emit_cluster_select(n.name);
    if (o.localtime != n.localtime || o.owner != n.owner ||
        o.latlong != n.latlong || o.url != n.url) {
      emit_cluster_attrs(n);
    }
    if (n.summary) {
      diff_summary(*o.summary, *n.summary);
    } else {
      const std::uint32_t dt = advance_dt(o, n);
      if (dt != 0) {
        put_u8(out_.bytes, kRowAdvance);
        put_varint(out_.bytes, dt);
        out_.mark_row();
      }
      for (const auto& [name, oh] : o.hosts) {
        if (n.hosts.find(name) != n.hosts.end()) continue;
        const std::uint32_t id = intern(name);
        put_u8(out_.bytes, kRowHostRemove);
        put_varint(out_.bytes, id);
        out_.mark_row();
      }
      for (const auto& [name, nh] : n.hosts) {
        auto it = o.hosts.find(name);
        if (it == o.hosts.end()) {
          emit_full_host(nh);
        } else {
          diff_host(it->second, nh, dt);
        }
      }
    }
    if (only_selects(m, 1)) rollback(m);
  }

  void diff_clusters(const std::vector<Cluster>& oldv,
                     const std::vector<Cluster>& newv) {
    if (failed_) return;
    std::map<std::string_view, std::size_t> old_idx;
    if (!order_ok(oldv, newv, old_idx)) {
      fail();
      return;
    }
    for (const Cluster& oc : oldv) {
      if (std::any_of(newv.begin(), newv.end(),
                      [&](const Cluster& nc) { return nc.name == oc.name; })) {
        continue;
      }
      check_str(oc.name);
      put_u8(out_.bytes, kRowClusterRemove);
      put_string(out_.bytes, oc.name);
      out_.mark_row();
    }
    for (const Cluster& nc : newv) {
      auto it = old_idx.find(nc.name);
      if (it == old_idx.end()) {
        emit_full_cluster(nc);
      } else {
        diff_cluster(oldv[it->second], nc);
      }
      if (failed_) return;
    }
  }

  // ---- grids --------------------------------------------------------------

  void emit_grid_push(const std::string& name) {
    check_str(name);
    put_u8(out_.bytes, kRowGridPush);
    put_string(out_.bytes, name);
    out_.mark_row();
  }

  void emit_grid_pop() {
    put_u8(out_.bytes, kRowGridPop);
    out_.mark_row();
  }

  void emit_grid_attrs(const Grid& g) {
    check_str(g.authority);
    put_u8(out_.bytes, kRowGridAttrs);
    put_string(out_.bytes, g.authority);
    put_varint(out_.bytes, static_cast<std::uint64_t>(g.localtime));
    out_.mark_row();
  }

  void emit_full_grid(const Grid& g) {
    emit_grid_push(g.name);
    emit_grid_attrs(g);
    if (g.summary) {
      emit_full_summary(*g.summary);
    } else {
      for (const Cluster& c : g.clusters) emit_full_cluster(c);
      for (const Grid& child : g.grids) emit_full_grid(child);
    }
    emit_grid_pop();
  }

  void diff_grid(const Grid& o, const Grid& n) {
    if (o.summary.has_value() != n.summary.has_value()) {
      fail();
      return;
    }
    const Mark m = mark();
    emit_grid_push(n.name);
    if (o.authority != n.authority || o.localtime != n.localtime) {
      emit_grid_attrs(n);
    }
    if (n.summary) {
      diff_summary(*o.summary, *n.summary);
    } else {
      diff_clusters(o.clusters, n.clusters);
      diff_grids(o.grids, n.grids);
    }
    emit_grid_pop();
    if (failed_) return;
    if (only_selects(m, 2)) rollback(m);  // push + pop
  }

  void diff_grids(const std::vector<Grid>& oldv, const std::vector<Grid>& newv) {
    if (failed_) return;
    std::map<std::string_view, std::size_t> old_idx;
    if (!order_ok(oldv, newv, old_idx)) {
      fail();
      return;
    }
    for (const Grid& og : oldv) {
      if (std::any_of(newv.begin(), newv.end(),
                      [&](const Grid& ng) { return ng.name == og.name; })) {
        continue;
      }
      check_str(og.name);
      put_u8(out_.bytes, kRowGridRemove);
      put_string(out_.bytes, og.name);
      out_.mark_row();
    }
    for (const Grid& ng : newv) {
      auto it = old_idx.find(ng.name);
      if (it == old_idx.end()) {
        emit_full_grid(ng);
      } else {
        diff_grid(oldv[it->second], ng);
      }
      if (failed_) return;
    }
  }

  NameDict& dict_;
  RowBuffer& out_;
  std::vector<std::string_view> sorted_names_;  ///< unique_names sort buffer
  const Host* unique_host_ = nullptr;  ///< a host of newr with unique names
  bool failed_ = false;
};

}  // namespace

std::optional<std::uint32_t> NameDict::find(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

bool NameDict::add(std::string_view name, std::uint32_t& id) {
  if (!dict_admits(by_id_.size(), bytes_, name.size())) return false;
  id = static_cast<std::uint32_t>(by_id_.size());
  by_id_.push_back(ids_.emplace(std::string(name), id).first);
  bytes_ += name.size();
  return true;
}

void NameDict::truncate(std::size_t size) {
  while (by_id_.size() > size) {
    bytes_ -= by_id_.back()->first.size();
    ids_.erase(by_id_.back());
    by_id_.pop_back();
  }
}

bool diff_report(const Report& oldr, const Report& newr, NameDict& dict,
                 RowBuffer& out) {
  return Differ(dict, out).run(oldr, newr);
}

}  // namespace ganglia::fed
