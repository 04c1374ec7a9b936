// gmetad_daemon: a production-style gmetad driven by a gmetad.conf file.
//
//   $ ./gmetad_daemon path/to/gmetad.conf [--oneshot]
//
// Loads the configuration, starts the poller and both TCP endpoints, and
// runs until interrupted.  With --oneshot it performs a single poll round,
// prints per-source status and the dump, and exits — handy for smoke
// testing a config.  A commented sample config is printed by --sample.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "alarm/alarm.hpp"
#include "common/log.hpp"
#include "gmetad/gmetad.hpp"
#include "http/gateway.hpp"
#include "net/tcp.hpp"

using namespace ganglia;

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop = true; }

constexpr const char* kSampleConfig = R"(# sample gmetad.conf
gridname "SDSC"
authority "gmetad://sdsc.example:8651/"
mode n-level                       # or: one-level
data_source "meteor" 15 meteor-0:8649 meteor-1:8649 meteor-2:8649
data_source "attic" attic-gmeta:8651
trusted_hosts 127.0.0.1
alarm "high-load" load_one > 8 hold 30 clear 4
alarm "host-down" __host_down__ >= 1
xml_port 8651
interactive_port 8652
http_port 8653                     # HTTP gateway: /ui, /api/v1, /xml
http_cache_ttl 15
# http_max_connections 10000       # concurrent-connection cap (503 above)
# http_event_threads 0             # handler worker threads; 0 = auto
# http_idle_timeout 30             # idle/slow-loris deadline (s)
# query_max_scan 1000000           # /api/v1/query: rows scanned per plan (422 above)
# query_max_groups 10000           # /api/v1/query: distinct groups per plan
# query_max_result_bytes 1048576   # /api/v1/query: rendered result bytes
archive on
archive_step 15
# archive_dir /var/lib/gmetad       # persist RRD images across restarts
# archive_flush_interval 60        # write-behind cadence; 0 = flush on stop only
poll_threads 0                     # poll pipeline width; 0 = auto, 1 = sequential
# join_key "shared-secret"        # enable the soft-state JOIN protocol
# join_max_children 256            # cap on dynamically joined children
# gossip_port 8654                 # join the federation's gossip membership
# gossip_seed peer1:8654 peer2:8654
# gossip_interval 2                # seconds between gossip rounds
# gossip_fanout 3                  # ping-reqs sent when a ping fails
# t_fail 20                        # SUSPECT -> DEAD after t_fail + t_cleanup (s)
# t_cleanup 20                     # DEAD/LEFT rows kept t_cleanup more (s)
# gossip_aggregate on              # adopt sources for members naming us parent
# gossip_parent "SDSC"             # advertise our aggregator (child side)
# standby_for "SDSC"               # promote when that primary is DEAD
# gossip_piggyback on              # ride open federation poll streams instead
#                                  #   of dialing gossip connections (default on)
# gossip_max_digest 4194304        # message and sync-page byte cap
# federation_port 8655             # serve binary delta polls (parents fetch
#                                  #   changed rows instead of full XML dumps;
#                                  #   add fed=host:8655 to a data_source line
#                                  #   to poll a child incrementally)
# federation_heartbeat 30          # keep-alive ping cadence for idle sessions
# federation_max_frame 4194304     # wire frame cap (bytes)
# federation_resync_backoff 60     # seconds before re-dialing a dead delta port
# federation off                   # disable the delta client (XML dumps only)
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--sample") == 0) {
    std::fputs(kSampleConfig, stdout);
    return 0;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <gmetad.conf> [--oneshot]\n"
                 "       %s --sample   # print a sample config\n",
                 argv[0], argv[0]);
    return 2;
  }
  const bool oneshot = argc >= 3 && std::strcmp(argv[2], "--oneshot") == 0;

  auto config = gmetad::load_config_file(argv[1]);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 config.error().to_string().c_str());
    return 1;
  }

  set_log_level(LogLevel::info);
  WallClock clock;
  net::TcpTransport transport;
  gmetad::Gmetad monitor(std::move(*config), transport, clock);

  // Config-declared alarms fire to stderr.
  alarm::AlarmEngine alarms;
  alarms.add_sink([](const alarm::AlarmEvent& event) {
    std::fprintf(stderr, "ALARM %s\n", event.to_string().c_str());
  });
  if (auto s = alarm::attach_alarms(monitor, alarms); !s.ok()) {
    std::fprintf(stderr, "alarm config error: %s\n", s.to_string().c_str());
    return 1;
  }

  if (oneshot) {
    const auto results = monitor.poll_once();
    for (const auto& result : results) {
      const std::string status =
          result.ok ? "ok, " + std::to_string(result.bytes) + " bytes"
                    : "FAILED: " + result.error;
      std::printf("source %-20s %s\n", result.source.c_str(), status.c_str());
    }
    std::fputs(monitor.dump_xml().c_str(), stdout);
    std::fputs("\n", stdout);
    return 0;
  }

  if (auto s = monitor.start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.to_string().c_str());
    return 1;
  }

  // The HTTP gateway (web front door) when the config asks for one.
  http::GatewayOptions gateway_options;
  gateway_options.cache_ttl_s = monitor.config().http_cache_ttl_s;
  gateway_options.query_max_scan =
      static_cast<std::uint64_t>(monitor.config().query_max_scan);
  gateway_options.query_max_groups =
      static_cast<std::uint64_t>(monitor.config().query_max_groups);
  gateway_options.query_max_result_bytes =
      static_cast<std::uint64_t>(monitor.config().query_max_result_bytes);
  http::ServerOptions server_options;
  server_options.max_connections =
      static_cast<std::size_t>(monitor.config().http_max_connections);
  server_options.event_threads = monitor.config().http_event_threads;
  server_options.idle_timeout_us =
      monitor.config().http_idle_timeout_s * kMicrosPerSecond;
  http::GatewayServer gateway(monitor, clock, gateway_options,
                              server_options);
  if (!monitor.config().http_bind.empty()) {
    if (auto s = gateway.start(transport, monitor.config().http_bind);
        !s.ok()) {
      std::fprintf(stderr, "http gateway start failed: %s\n",
                   s.to_string().c_str());
      monitor.stop();
      return 1;
    }
    std::printf("http gateway on http://%s/ (try /ui/meta, /api/v1/)\n",
                gateway.address().c_str());
  }

  std::printf("gmetad '%s' up: dump %s, queries %s (Ctrl-C to stop)\n",
              monitor.config().grid_name.c_str(),
              monitor.xml_address().c_str(),
              monitor.interactive_address().c_str());

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down\n");
  gateway.stop();
  monitor.stop();
  return 0;
}
