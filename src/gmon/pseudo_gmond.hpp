// Pseudo-gmond: the paper's controlled cluster emulator.
//
// "All experiments employ gmon emulators called pseudo-gmond to generate
// controlled Ganglia XML datasets for the monitoring tree.  These agents
// behave identically to a cluster's gmon daemons, except their metric
// values are chosen randomly.  Their XML output conforms to the Ganglia
// DTD, and therefore requires the same processing effort by the gmeta
// system under study." (paper §3)
//
// The emulator holds a full typed Cluster of `host_count` hosts with the
// complete 33-metric catalogue; each report refreshes volatile values with
// a deterministic RNG and stamps current times, then serialises.  The
// serialisation and the downstream parse are therefore byte-for-byte
// representative of a real cluster of that size.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "fed/publisher.hpp"
#include "gmon/metrics.hpp"
#include "net/transport.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::gmon {

struct PseudoGmondConfig {
  std::string cluster_name = "pseudo";
  std::size_t host_count = 100;
  std::uint64_t seed = 42;
  std::string host_prefix = "compute-0-";
  std::string owner = "pseudo-gmond";
  /// Redraw volatile metric values on every report (matches live clusters);
  /// disable for byte-identical reports across polls.
  bool fresh_values_per_query = true;
  /// Emulate gmond's soft-state broadcast timers instead of redrawing
  /// everything: each metric rebroadcasts (new value, TN reset) only every
  /// max(1, tmax/2) seconds, hosts heartbeat every 10 s, and everything
  /// else just ages — the workload shape real deltas see.  Deterministic
  /// in (seed, clock), so concurrent pollers observe identical reports.
  /// Takes precedence over fresh_values_per_query.
  bool soft_state_timers = false;
};

class PseudoGmond {
 public:
  PseudoGmond(PseudoGmondConfig config, Clock& clock);

  /// Full cluster report, as the gmond TCP port would serve it.
  std::string report_xml();

  /// The same data in typed form (REPORTED/TN stamped against now).
  Cluster snapshot();

  /// Transport service: ignores the request, serves the full report.
  net::ServiceFn service();

  /// Delta-federation service: answers framed poll/ping requests with row
  /// deltas against the peer's last acknowledged report (full XML on first
  /// contact or resync).  The published document is rebuilt at most once
  /// per clock second, so every poller within a second sees one version.
  net::ServiceFn federation_service();

  /// Mark the first `n` hosts as down (silent past 4*TMAX); they stay in
  /// the report so summaries count them in HOSTS DOWN.
  void set_down_hosts(std::size_t n);

  /// Grow or shrink the emulated cluster (hosts keep deterministic values).
  void resize(std::size_t host_count);

  std::size_t host_count() const noexcept { return hosts_.size(); }
  std::uint64_t reports_served() const noexcept { return reports_served_; }

 private:
  struct SimHost {
    std::string name;
    std::string ip;
    std::vector<double> values;  ///< one per catalogue metric
    bool down = false;
    // Soft-state timers (lazily sized; 0 = not yet staggered in).
    std::vector<std::int64_t> last_broadcast;  ///< one per catalogue metric
    std::int64_t last_heartbeat = 0;
  };

  SimHost make_host(std::size_t index);
  void fill_cluster(Cluster& out, std::int64_t now);
  fed::Doc federation_doc();

  PseudoGmondConfig config_;
  Clock& clock_;
  Rng rng_;
  /// Every emulated gmond started a day before the emulator did, once:
  /// a GMOND_STARTED that moved would report a restart on every poll.
  std::int64_t gmond_started_;
  std::vector<SimHost> hosts_;
  std::uint64_t reports_served_ = 0;

  // Delta federation serving (created on first federation_service() call).
  std::mutex fed_mutex_;
  std::unique_ptr<fed::Publisher> fed_publisher_;
  std::shared_ptr<const Report> fed_doc_;
  std::int64_t fed_doc_second_ = -1;
  std::uint64_t fed_doc_version_ = 0;
};

}  // namespace ganglia::gmon
