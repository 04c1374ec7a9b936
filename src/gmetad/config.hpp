// Gmetad configuration (gmetad.conf work-alike).
//
// The wide-area tree is configured per node: each gmetad names its grid,
// advertises an authority URL, and lists data sources.  A data source is an
// ordered list of redundant addresses — any gmon node can serve the whole
// cluster, so extra addresses are failover candidates (paper fig 1); a
// source pointing at another gmetad's XML port grafts that child's grid
// into this node's tree.  Trust edges are configured on the *child*: a
// parent's address must appear in trusted_hosts before the child will serve
// it ("we manually configure the unidirectional trust edges such that a
// child must explicitly trust its parent", paper §2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace ganglia::gmetad {

/// 1-level reports the union of children's data upstream and archives the
/// whole subtree; N-level summarises remote grids (the paper's designs
/// §2.1 vs §2.2-2.3).
enum class Mode { one_level, n_level };

struct DataSourceConfig {
  std::string name;                     ///< cluster or child-grid name
  std::vector<std::string> addresses;   ///< failover candidates, in order
  std::int64_t poll_interval_s = 15;
  /// Delta federation endpoint of this source ("host:port"; empty = poll
  /// the XML dump port only).  Configured with a `fed=host:port` token on
  /// the data_source line, or discovered through gossip metadata.
  std::string federation_address;
  /// Per-source copies of the global federation knobs (filled by Gmetad).
  std::size_t federation_max_frame = 4u << 20;
  std::int64_t federation_resync_backoff_s = 60;
};

struct GmetadConfig {
  std::string grid_name = "unspecified";
  std::string authority;                ///< URL advertised upstream
  Mode mode = Mode::n_level;
  std::vector<DataSourceConfig> sources;
  std::vector<std::string> trusted_hosts;  ///< empty = trust everyone
  std::string xml_bind = "127.0.0.1:8651";
  std::string interactive_bind = "127.0.0.1:8652";
  std::int64_t connect_timeout_s = 10;
  /// Poll pipeline width: how many sources are fetched/parsed/archived
  /// concurrently.  0 = auto (min(#sources, hardware threads)); 1 =
  /// sequential (the pre-pipeline behaviour).
  std::size_t poll_threads = 0;
  bool archive_enabled = true;
  std::int64_t archive_step_s = 15;
  /// Directory for persistent RRD images (empty = in-memory only, the
  /// paper's tmpfs-style configuration).  Loaded on start, flushed on stop.
  std::string archive_dir;
  /// Write-behind flush cadence: a background flusher persists dirty
  /// archives every this many seconds while the daemon runs (0 = flush
  /// only on stop).  Ignored when archive_dir is empty.
  std::int64_t archive_flush_interval_s = 30;
  /// HTTP gateway bind ("host:port"; empty = gateway disabled).  The
  /// gateway itself lives in src/http and layers on top of gmetad; these
  /// knobs only carry the operator's wishes to whoever wires it up.
  std::string http_bind;
  /// Response-cache TTL floor in seconds (0 = epoch-only invalidation).
  std::int64_t http_cache_ttl_s = 15;
  /// Concurrent-connection cap.  The event-driven server carries idle
  /// keep-alive connections in a few KB each, so the default is C10K.
  std::int64_t http_max_connections = 10000;
  /// Handler worker threads for the HTTP reactor (0 = auto).
  std::size_t http_event_threads = 0;
  /// Idle/slow-loris deadline: a connection with no read/write progress
  /// for this long is closed.
  std::int64_t http_idle_timeout_s = 30;
  /// /api/v1/query execution budget: max relation rows one plan may scan
  /// (one per host considered plus one per RRD row a time-range read
  /// covers).  Breaches fail with a structured 422, never a slow worker.
  std::int64_t query_max_scan = 1'000'000;
  /// /api/v1/query budget: max distinct groups one plan may accumulate.
  std::int64_t query_max_groups = 10'000;
  /// /api/v1/query budget: max rendered result size in bytes.
  std::int64_t query_max_result_bytes = 1 << 20;
  /// Shared secret for the soft-state join protocol (empty = joins refused).
  std::string join_key;
  /// A dynamically joined child is pruned after this silence (seconds).
  std::int64_t join_expiry_s = 240;
  /// Cap on dynamically joined children (join protocol + gossip topology).
  std::size_t join_max_children = 256;

  // -- gossip membership (federated gmetads) -------------------------------
  /// Gossip endpoint ("host:port"; empty = membership gossip disabled).
  std::string gossip_bind;
  /// Bootstrap peers' gossip addresses (probed periodically, so a healed
  /// partition or restarted node always finds its way back).
  std::vector<std::string> gossip_seeds;
  std::int64_t gossip_interval_s = 2;   ///< seconds between gossip rounds
  std::size_t gossip_fanout = 3;        ///< ping-reqs after a failed ping
  /// A SUSPECT member turns DEAD after t_fail + t_cleanup on each member's
  /// own timer (DEAD is never gossiped); DEAD and LEFT rows are kept
  /// t_cleanup more.
  std::int64_t gossip_t_fail_s = 20;
  std::int64_t gossip_t_cleanup_s = 20;
  /// Adopt data sources for ALIVE members advertising parent=<our grid>.
  bool gossip_aggregate = false;
  /// Primary aggregator id this node advertises as its parent (the child
  /// configures who may aggregate it — the paper's trust direction).
  std::string gossip_parent;
  /// Primary ids this node stands by for: when one is declared DEAD, we
  /// adopt its children's sources until it recovers.
  std::vector<std::string> standby_for;
  /// Offer outbound gossip messages a ride on live federation poll
  /// sessions before dialling a gossip connection.
  bool gossip_piggyback = true;
  /// Payload cap (bytes) of every gossip message and sync page; news past
  /// it waits for the next message, a table past it is pulled in pages.
  std::size_t gossip_max_digest = 4u << 20;

  // -- delta federation (streaming incremental polls) ----------------------
  /// Master switch for the delta *client*: when on, sources with a
  /// federation address are polled over the binary delta protocol first,
  /// falling back to the XML dump port on any failure.
  bool federation_enabled = true;
  /// Delta federation listener ("host:port"; empty = delta serving off —
  /// this node then answers only legacy full-XML polls).
  std::string federation_bind;
  /// Ping idle delta sessions this often to keep streams warm (0 = never).
  std::int64_t federation_heartbeat_s = 30;
  /// Largest frame either side may send on a delta session (bytes).
  std::size_t federation_max_frame = 4u << 20;
  /// After a delta poll fails, stay on the XML dump path for this many
  /// seconds before retrying the delta session (0 = retry immediately).
  std::int64_t federation_resync_backoff_s = 60;

  /// Config-declared alarm rules, evaluated after every poll round (the
  /// paper's §4 alarm mechanism, wired into the daemon).
  struct AlarmRuleConfig {
    std::string name;
    std::string metric;
    std::string comparison;  ///< one of > >= < <= == !=
    double threshold = 0;
    std::int64_t hold_s = 0;
    std::optional<double> clear_threshold;
    std::string host_pattern;     ///< regex; empty = all hosts
    std::string cluster_pattern;  ///< regex; empty = all clusters
  };
  std::vector<AlarmRuleConfig> alarms;
};

/// Parse gmetad.conf syntax:
///
///   # comment
///   gridname "SDSC"
///   authority "gmetad://sdsc.example:8651/"
///   mode n-level                        # or: one-level
///   data_source "meteor" 15 m0:8649 m1:8649
///   data_source "attic" attic-gmeta:8651        # default interval
///   data_source "nashi" 15 fed=nashi:8655 nashi:8651  # delta endpoint + XML fallback
///   trusted_hosts 10.0.0.1 parent.example
///   xml_port 8651                        # or xml_bind host:port
///   interactive_port 8652
///   http_port 8653                       # or http_bind host:port; HTTP gateway
///   http_cache_ttl 15                    # gateway response-cache TTL floor (s)
///   http_max_connections 10000
///   http_event_threads 0                 # handler workers (0 = auto)
///   http_idle_timeout 30                 # idle/slow-loris deadline (s)
///   query_max_scan 1000000               # /api/v1/query budget: rows scanned per plan
///   query_max_groups 10000               # /api/v1/query budget: distinct groups per plan
///   query_max_result_bytes 1048576       # /api/v1/query budget: rendered result bytes
///   connect_timeout 10
///   poll_threads 4                       # 0 = auto, 1 = sequential
///   archive off                          # or: archive on
///   archive_step 15
///   archive_dir "/var/lib/gmetad/rrds"   # persist archives across restarts
///   archive_flush_interval 30            # write-behind cadence (s; 0 = on stop only)
///   join_key "sekrit"
///   join_expiry 240
///   join_max_children 256                # cap on dynamic children
///   gossip_port 8654                     # or gossip_bind host:port; enables gossip
///   gossip_seed peer1:8654 peer2:8654    # repeatable
///   gossip_interval 2                    # seconds between rounds
///   gossip_fanout 3                      # ping-reqs after a failed ping
///   t_fail 20                            # SUSPECT->DEAD after t_fail+t_cleanup
///   t_cleanup 20                         # DEAD/LEFT rows kept t_cleanup more
///   gossip_aggregate on                  # adopt children naming us as parent
///   gossip_parent "core"                 # advertise our primary aggregator
///   standby_for "core"                   # repeatable; promote when DEAD
///   gossip_piggyback on                  # ride gossip on federation poll streams
///   gossip_max_digest 4194304            # message/sync-page cap (bytes)
///   federation off                       # disable the delta poll client
///   federation_port 8655                 # or federation_bind host:port; delta serving
///   federation_heartbeat 30              # idle-session ping cadence (s; 0 = never)
///   federation_max_frame 4194304         # frame size cap (bytes)
///   federation_resync_backoff 60         # seconds on XML path after a delta failure
///   alarm "high-load" load_one > 8 hold 30 clear 4
///   alarm "dead" __host_down__ >= 1 hosts "web-.*" clusters "prod-.*"
Result<GmetadConfig> parse_config(std::string_view text);

/// Load + parse a config file.
Result<GmetadConfig> load_config_file(const std::string& path);

}  // namespace ganglia::gmetad
