#include "gmon/pseudo_gmond.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace ganglia::gmon {

PseudoGmond::PseudoGmond(PseudoGmondConfig config, Clock& clock)
    : config_(std::move(config)),
      clock_(clock),
      rng_(config_.seed),
      gmond_started_(clock_.now_seconds() - 86'400) {
  hosts_.reserve(config_.host_count);
  for (std::size_t i = 0; i < config_.host_count; ++i) {
    hosts_.push_back(make_host(i));
  }
}

PseudoGmond::SimHost PseudoGmond::make_host(std::size_t index) {
  SimHost host;
  host.name = config_.host_prefix + std::to_string(index) + ".local";
  host.ip = strprintf("10.%u.%u.%u",
                      static_cast<unsigned>((index >> 16) & 0xff),
                      static_cast<unsigned>((index >> 8) & 0xff),
                      static_cast<unsigned>(index & 0xff));
  // Independent stream per host so resize() leaves existing hosts stable.
  Rng host_rng(SplitMix64(config_.seed).next() + index * 0x9e3779b97f4a7c15ULL);
  const auto catalogue = standard_metrics();
  host.values.reserve(catalogue.size());
  for (const MetricDef& def : catalogue) {
    host.values.push_back(host_rng.next_range(def.sim_lo, def.sim_hi));
  }
  return host;
}

void PseudoGmond::resize(std::size_t host_count) {
  if (host_count < hosts_.size()) {
    hosts_.resize(host_count);
    return;
  }
  hosts_.reserve(host_count);
  for (std::size_t i = hosts_.size(); i < host_count; ++i) {
    hosts_.push_back(make_host(i));
  }
}

void PseudoGmond::set_down_hosts(std::size_t n) {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].down = i < n;
  }
}

void PseudoGmond::fill_cluster(Cluster& out, std::int64_t now) {
  out.name = config_.cluster_name;
  out.owner = config_.owner;
  out.localtime = now;
  const auto catalogue = standard_metrics();
  std::size_t host_index = 0;
  for (SimHost& sim_host : hosts_) {
    // With fresh values disabled, reports must be byte-identical across
    // polls: draw TN stamps from a per-host RNG reseeded every report
    // instead of the advancing stream.
    Rng stable_rng(SplitMix64(config_.seed ^ 0x7e57ab1eULL).next() +
                   host_index * 31);
    Rng& draw = config_.fresh_values_per_query ? rng_ : stable_rng;
    if (config_.soft_state_timers) {
      // Soft-state mode: values change only when a metric's rebroadcast
      // timer fires (every tmax/2, staggered per host/metric so the whole
      // cluster never fires at once).  Everything is a pure function of
      // (seed, timer state, now) — no advancing stream — so repeated fills
      // at the same second are identical.
      if (sim_host.last_broadcast.size() != catalogue.size()) {
        sim_host.last_broadcast.assign(catalogue.size(), 0);
      }
      for (std::size_t m = 0; m < catalogue.size(); ++m) {
        const MetricDef& def = catalogue[m];
        const std::int64_t interval =
            std::max<std::int64_t>(1, static_cast<std::int64_t>(def.tmax) / 2);
        std::int64_t& broadcast = sim_host.last_broadcast[m];
        if (broadcast == 0) {
          Rng stagger(SplitMix64(config_.seed ^ 0x50f7574aULL).next() +
                      host_index * 131 + m);
          broadcast = std::max<std::int64_t>(
              0, now - static_cast<std::int64_t>(stagger.next_below(
                         static_cast<std::uint32_t>(interval))));
        } else if (now - broadcast >= interval) {
          broadcast = now;
          if (!def.constant && metric_type_is_numeric(def.type)) {
            Rng redraw(SplitMix64(config_.seed ^
                                  static_cast<std::uint64_t>(now))
                           .next() +
                       host_index * 1000003ULL + m * 8191ULL);
            sim_host.values[m] = redraw.next_range(def.sim_lo, def.sim_hi);
          }
        }
      }
      if (sim_host.last_heartbeat == 0) {
        Rng stagger(SplitMix64(config_.seed ^ 0x4ea27b7aULL).next() +
                    host_index * 37);
        sim_host.last_heartbeat =
            std::max<std::int64_t>(0, now - static_cast<std::int64_t>(
                                           stagger.next_below(10)));
      } else if (now - sim_host.last_heartbeat >= 10) {
        sim_host.last_heartbeat = now;
      }
    } else if (config_.fresh_values_per_query) {
      for (std::size_t m = 0; m < catalogue.size(); ++m) {
        const MetricDef& def = catalogue[m];
        if (def.constant || !metric_type_is_numeric(def.type)) continue;
        sim_host.values[m] = rng_.next_range(def.sim_lo, def.sim_hi);
      }
    }
    ++host_index;
    Host host;
    host.name = sim_host.name;
    host.ip = sim_host.ip;
    host.tmax = 20;
    if (sim_host.down) {
      // Silent for well past 4*TMAX: counted in HOSTS DOWN.
      host.tn = 400;
      host.reported = now - 400;
    } else if (config_.soft_state_timers) {
      host.tn = static_cast<std::uint32_t>(now - sim_host.last_heartbeat);
      host.reported = sim_host.last_heartbeat;
    } else {
      host.tn = static_cast<std::uint32_t>(draw.next_below(15));
      host.reported = now - host.tn;
    }
    host.gmond_started = gmond_started_;
    host.metrics.reserve(catalogue.size());
    for (std::size_t m = 0; m < catalogue.size(); ++m) {
      const MetricDef& def = catalogue[m];
      Metric metric;
      metric.name = std::string(def.name);
      metric.units = std::string(def.units);
      metric.slope = def.slope;
      metric.tmax = def.tmax;
      metric.dmax = def.dmax;
      metric.tn =
          config_.soft_state_timers
              ? static_cast<std::uint32_t>(now - sim_host.last_broadcast[m])
              : static_cast<std::uint32_t>(draw.next_below(def.tmax));
      metric.source = "gmond";
      metric.type = def.type;
      const double v = sim_host.values[m];
      switch (def.type) {
        case MetricType::string_t:
          metric.value = std::string(def.string_value);
          break;
        case MetricType::float_t:
        case MetricType::double_t:
          metric.numeric = v;
          metric.value = strprintf("%.2f", v);
          break;
        default:
          metric.numeric = std::floor(v);
          metric.value = std::to_string(static_cast<std::int64_t>(v));
          break;
      }
      host.metrics.push_back(std::move(metric));
    }
    out.hosts.emplace(host.name, std::move(host));
  }
}

Cluster PseudoGmond::snapshot() {
  Cluster out;
  fill_cluster(out, clock_.now_seconds());
  return out;
}

std::string PseudoGmond::report_xml() {
  ++reports_served_;
  Report report;
  report.source = "gmond";
  report.clusters.emplace_back();
  fill_cluster(report.clusters.back(), clock_.now_seconds());
  return write_report(report);
}

net::ServiceFn PseudoGmond::service() {
  return [this](std::string_view) -> Result<std::string> {
    return report_xml();
  };
}

fed::Doc PseudoGmond::federation_doc() {
  std::lock_guard lock(fed_mutex_);
  const std::int64_t now = clock_.now_seconds();
  if (fed_doc_ == nullptr || fed_doc_second_ != now) {
    ++reports_served_;
    Report report;
    report.source = "gmond";
    report.clusters.emplace_back();
    fill_cluster(report.clusters.back(), now);
    fed_doc_ = std::make_shared<const Report>(std::move(report));
    fed_doc_second_ = now;
    ++fed_doc_version_;
  }
  return {fed_doc_, fed_doc_version_};
}

net::ServiceFn PseudoGmond::federation_service() {
  if (fed_publisher_ == nullptr) {
    // A gmond's cluster has no grid to summarise: every view gets it.
    fed_publisher_ = std::make_unique<fed::Publisher>(
        [this](fed::View) { return federation_doc(); });
  }
  fed::Publisher* publisher = fed_publisher_.get();
  return [publisher](std::string_view request) -> Result<std::string> {
    return publisher->serve(request);
  };
}

}  // namespace ganglia::gmon
