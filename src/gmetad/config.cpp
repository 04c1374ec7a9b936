#include "gmetad/config.hpp"

#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace ganglia::gmetad {

namespace {

/// Tokenise one config line: whitespace-separated words, double-quoted
/// strings kept whole (quotes stripped).  '#' starts a comment.
Result<std::vector<std::string>> tokenize(std::string_view line,
                                          std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '#') {
      break;
    } else if (c == '"') {
      const std::size_t end = line.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Err(Errc::parse_error,
                   "unterminated quote on line " + std::to_string(line_no));
      }
      tokens.emplace_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      std::size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
             line[end] != '#') {
        ++end;
      }
      tokens.emplace_back(line.substr(i, end - i));
      i = end;
    }
  }
  return tokens;
}

Error bad_line(std::size_t line_no, const std::string& what) {
  return Err(Errc::parse_error,
             what + " on line " + std::to_string(line_no));
}

}  // namespace

Result<GmetadConfig> parse_config(std::string_view text) {
  GmetadConfig config;
  std::size_t line_no = 0;
  for (std::string_view line : split(text, '\n')) {
    ++line_no;
    auto tokens_r = tokenize(line, line_no);
    if (!tokens_r.ok()) return tokens_r.error();
    const auto& tokens = *tokens_r;
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];

    if (key == "gridname") {
      if (tokens.size() != 2) return bad_line(line_no, "gridname needs a value");
      config.grid_name = tokens[1];
    } else if (key == "authority") {
      if (tokens.size() != 2) return bad_line(line_no, "authority needs a URL");
      config.authority = tokens[1];
    } else if (key == "mode") {
      if (tokens.size() != 2) return bad_line(line_no, "mode needs a value");
      if (tokens[1] == "n-level") {
        config.mode = Mode::n_level;
      } else if (tokens[1] == "one-level" || tokens[1] == "1-level") {
        config.mode = Mode::one_level;
      } else {
        return bad_line(line_no, "mode must be n-level or one-level");
      }
    } else if (key == "data_source") {
      if (tokens.size() < 3) {
        return bad_line(line_no,
                        "data_source needs a name and at least one address");
      }
      DataSourceConfig ds;
      ds.name = tokens[1];
      std::size_t first_addr = 2;
      // Optional polling interval between name and addresses.
      if (auto interval = parse_i64(tokens[2]);
          interval && tokens[2].find(':') == std::string::npos) {
        if (*interval <= 0) return bad_line(line_no, "bad poll interval");
        ds.poll_interval_s = *interval;
        first_addr = 3;
      }
      for (std::size_t i = first_addr; i < tokens.size(); ++i) {
        if (tokens[i].rfind("fed=", 0) == 0) {
          const std::string fed = tokens[i].substr(4);
          if (fed.find(':') == std::string::npos) {
            return bad_line(line_no, "fed= address '" + fed +
                                         "' must be host:port");
          }
          ds.federation_address = fed;
          continue;
        }
        if (tokens[i].find(':') == std::string::npos) {
          return bad_line(line_no, "address '" + tokens[i] +
                                       "' must be host:port");
        }
        ds.addresses.push_back(tokens[i]);
      }
      if (ds.addresses.empty()) {
        return bad_line(line_no, "data_source needs at least one address");
      }
      for (const DataSourceConfig& existing : config.sources) {
        if (existing.name == ds.name) {
          return bad_line(line_no, "duplicate data_source '" + ds.name + "'");
        }
      }
      config.sources.push_back(std::move(ds));
    } else if (key == "trusted_hosts") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        config.trusted_hosts.push_back(tokens[i]);
      }
    } else if (key == "xml_port") {
      auto port = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!port || *port > 65535) return bad_line(line_no, "bad xml_port");
      config.xml_bind = "127.0.0.1:" + std::to_string(*port);
    } else if (key == "xml_bind") {
      if (tokens.size() != 2) return bad_line(line_no, "xml_bind needs host:port");
      config.xml_bind = tokens[1];
    } else if (key == "interactive_port") {
      auto port = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!port || *port > 65535) {
        return bad_line(line_no, "bad interactive_port");
      }
      config.interactive_bind = "127.0.0.1:" + std::to_string(*port);
    } else if (key == "interactive_bind") {
      if (tokens.size() != 2) {
        return bad_line(line_no, "interactive_bind needs host:port");
      }
      config.interactive_bind = tokens[1];
    } else if (key == "http_port") {
      auto port = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!port || *port > 65535) return bad_line(line_no, "bad http_port");
      config.http_bind = "127.0.0.1:" + std::to_string(*port);
    } else if (key == "http_bind") {
      if (tokens.size() != 2) {
        return bad_line(line_no, "http_bind needs host:port");
      }
      config.http_bind = tokens[1];
    } else if (key == "http_cache_ttl") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 0) return bad_line(line_no, "bad http_cache_ttl");
      config.http_cache_ttl_s = *t;
    } else if (key == "http_max_connections") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad http_max_connections");
      config.http_max_connections = *t;
    } else if (key == "http_event_threads") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t > 256) return bad_line(line_no, "bad http_event_threads");
      config.http_event_threads = static_cast<std::size_t>(*t);
    } else if (key == "http_idle_timeout") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad http_idle_timeout");
      config.http_idle_timeout_s = *t;
    } else if (key == "query_max_scan") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad query_max_scan");
      config.query_max_scan = *t;
    } else if (key == "query_max_groups") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad query_max_groups");
      config.query_max_groups = *t;
    } else if (key == "query_max_result_bytes") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad query_max_result_bytes");
      config.query_max_result_bytes = *t;
    } else if (key == "poll_threads") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t > 256) return bad_line(line_no, "bad poll_threads");
      config.poll_threads = static_cast<std::size_t>(*t);
    } else if (key == "connect_timeout") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad connect_timeout");
      config.connect_timeout_s = *t;
    } else if (key == "archive") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
        return bad_line(line_no, "archive must be on or off");
      }
      config.archive_enabled = tokens[1] == "on";
    } else if (key == "archive_step") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad archive_step");
      config.archive_step_s = *t;
    } else if (key == "archive_dir") {
      if (tokens.size() != 2) return bad_line(line_no, "archive_dir needs a path");
      config.archive_dir = tokens[1];
    } else if (key == "archive_flush_interval") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 0) return bad_line(line_no, "bad archive_flush_interval");
      config.archive_flush_interval_s = *t;
    } else if (key == "join_key") {
      if (tokens.size() != 2) return bad_line(line_no, "join_key needs a value");
      config.join_key = tokens[1];
    } else if (key == "alarm") {
      // alarm "<name>" <metric> <op> <threshold> [hold <s>] [clear <v>]
      //       [hosts <regex>] [clusters <regex>]
      if (tokens.size() < 5) {
        return bad_line(line_no,
                        "alarm needs: name metric op threshold [options]");
      }
      GmetadConfig::AlarmRuleConfig rule;
      rule.name = tokens[1];
      rule.metric = tokens[2];
      rule.comparison = tokens[3];
      static constexpr std::string_view kOps[] = {">", ">=", "<",
                                                  "<=", "==", "!="};
      bool op_ok = false;
      for (std::string_view op : kOps) op_ok = op_ok || rule.comparison == op;
      if (!op_ok) return bad_line(line_no, "bad alarm comparison");
      auto threshold = parse_double(tokens[4]);
      if (!threshold) return bad_line(line_no, "bad alarm threshold");
      rule.threshold = *threshold;
      for (std::size_t i = 5; i + 1 < tokens.size(); i += 2) {
        if (tokens[i] == "hold") {
          auto hold = parse_i64(tokens[i + 1]);
          if (!hold || *hold < 0) return bad_line(line_no, "bad alarm hold");
          rule.hold_s = *hold;
        } else if (tokens[i] == "clear") {
          auto clear = parse_double(tokens[i + 1]);
          if (!clear) return bad_line(line_no, "bad alarm clear value");
          rule.clear_threshold = *clear;
        } else if (tokens[i] == "hosts") {
          rule.host_pattern = tokens[i + 1];
        } else if (tokens[i] == "clusters") {
          rule.cluster_pattern = tokens[i + 1];
        } else {
          return bad_line(line_no,
                          "unknown alarm option '" + tokens[i] + "'");
        }
      }
      if ((tokens.size() - 5) % 2 != 0) {
        return bad_line(line_no, "alarm option missing its value");
      }
      config.alarms.push_back(std::move(rule));
    } else if (key == "join_expiry") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad join_expiry");
      config.join_expiry_s = *t;
    } else if (key == "join_max_children") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t == 0) return bad_line(line_no, "bad join_max_children");
      config.join_max_children = static_cast<std::size_t>(*t);
    } else if (key == "gossip_port") {
      auto port = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!port || *port > 65535) return bad_line(line_no, "bad gossip_port");
      config.gossip_bind = "127.0.0.1:" + std::to_string(*port);
    } else if (key == "gossip_bind") {
      if (tokens.size() != 2) {
        return bad_line(line_no, "gossip_bind needs host:port");
      }
      config.gossip_bind = tokens[1];
    } else if (key == "gossip_seed") {
      if (tokens.size() < 2) {
        return bad_line(line_no, "gossip_seed needs at least one address");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i].find(':') == std::string::npos) {
          return bad_line(line_no, "gossip_seed '" + tokens[i] +
                                       "' must be host:port");
        }
        config.gossip_seeds.push_back(tokens[i]);
      }
    } else if (key == "gossip_interval") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad gossip_interval");
      config.gossip_interval_s = *t;
    } else if (key == "gossip_fanout") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t == 0 || *t > 64) return bad_line(line_no, "bad gossip_fanout");
      config.gossip_fanout = static_cast<std::size_t>(*t);
    } else if (key == "t_fail") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad t_fail");
      config.gossip_t_fail_s = *t;
    } else if (key == "t_cleanup") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t <= 0) return bad_line(line_no, "bad t_cleanup");
      config.gossip_t_cleanup_s = *t;
    } else if (key == "gossip_aggregate") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
        return bad_line(line_no, "gossip_aggregate must be on or off");
      }
      config.gossip_aggregate = tokens[1] == "on";
    } else if (key == "gossip_parent") {
      if (tokens.size() != 2) {
        return bad_line(line_no, "gossip_parent needs an id");
      }
      config.gossip_parent = tokens[1];
    } else if (key == "standby_for") {
      if (tokens.size() != 2) return bad_line(line_no, "standby_for needs an id");
      config.standby_for.push_back(tokens[1]);
    } else if (key == "gossip_piggyback") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
        return bad_line(line_no, "gossip_piggyback must be on or off");
      }
      config.gossip_piggyback = tokens[1] == "on";
    } else if (key == "gossip_max_digest") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 4096 || *t > (64u << 20)) {
        return bad_line(line_no, "bad gossip_max_digest");
      }
      config.gossip_max_digest = static_cast<std::size_t>(*t);
    } else if (key == "federation") {
      if (tokens.size() != 2 || (tokens[1] != "on" && tokens[1] != "off")) {
        return bad_line(line_no, "federation must be on or off");
      }
      config.federation_enabled = tokens[1] == "on";
    } else if (key == "federation_port") {
      auto port = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!port || *port > 65535) return bad_line(line_no, "bad federation_port");
      config.federation_bind = "127.0.0.1:" + std::to_string(*port);
    } else if (key == "federation_bind") {
      if (tokens.size() != 2) {
        return bad_line(line_no, "federation_bind needs host:port");
      }
      config.federation_bind = tokens[1];
    } else if (key == "federation_heartbeat") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 0) return bad_line(line_no, "bad federation_heartbeat");
      config.federation_heartbeat_s = *t;
    } else if (key == "federation_max_frame") {
      auto t = parse_u64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 4096 || *t > (64u << 20)) {
        return bad_line(line_no, "bad federation_max_frame");
      }
      config.federation_max_frame = static_cast<std::size_t>(*t);
    } else if (key == "federation_resync_backoff") {
      auto t = parse_i64(tokens.size() > 1 ? tokens[1] : "");
      if (!t || *t < 0) return bad_line(line_no, "bad federation_resync_backoff");
      config.federation_resync_backoff_s = *t;
    } else {
      return bad_line(line_no, "unknown directive '" + key + "'");
    }
  }
  return config;
}

Result<GmetadConfig> load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Err(Errc::io_error, "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_config(text.str());
}

}  // namespace ganglia::gmetad
