#include "gmetad/gmetad.hpp"

#include <algorithm>
#include <latch>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "gmetad/render/fragments.hpp"
#include "gmetad/render/report_builder.hpp"
#include "net/framing.hpp"
#include "xml/writer.hpp"

namespace ganglia::gmetad {

namespace {
std::size_t resolve_poll_threads(const GmetadConfig& config) {
  if (config.poll_threads != 0) return config.poll_threads;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(std::max<std::size_t>(config.sources.size(), 1), hw);
}

/// The summary view: the node's grid in summary form, folded straight from
/// the store with no render walk.  Grid::summarize() of the whole-tree
/// document merges its clusters, then its grids, and that document lists
/// every source's clusters before any source's grids.  Folding the store in
/// that order hands the parent the bits it would have computed from the
/// tree.
Report summary_doc(const std::vector<Store::Versioned>& sources,
                   const QueryContext& ctx) {
  SummaryInfo total;
  for (const Store::Versioned& v : sources) {
    for (const Cluster& cluster : v.snapshot->clusters()) {
      total.merge(v.snapshot->cluster_summary(cluster));
    }
  }
  for (const Store::Versioned& v : sources) {
    for (const Grid& grid : v.snapshot->grids()) total.merge(grid.summarize());
  }
  Report report;
  report.version = ctx.version;
  Grid self;
  self.name = ctx.grid_name;
  self.authority = ctx.authority;
  self.localtime = ctx.now;
  self.summary = std::move(total);
  report.grids.push_back(std::move(self));
  return report;
}
}  // namespace

Gmetad::Gmetad(GmetadConfig config, net::Transport& transport, Clock& clock)
    : config_(std::move(config)),
      transport_(transport),
      clock_(clock),
      archiver_(ArchiverOptions{config_.archive_step_s,
                                config_.archive_step_s * 8,
                                config_.archive_dir,
                                config_.archive_flush_interval_s}),
      engine_(store_),
      joins_(config_.join_expiry_s, config_.join_max_children) {
  for (const DataSourceConfig& ds : config_.sources) {
    sources_.push_back(std::make_shared<DataSource>(finish_source_config(ds)));
  }
  if (const std::size_t width = resolve_poll_threads(config_); width > 1) {
    pool_ = std::make_unique<PollPool>(width);
  }

  fed::PublisherOptions fed_opts;
  fed_opts.max_frame = config_.federation_max_frame;
  fed_opts.max_digest_bytes = config_.gossip_max_digest;
  publisher_ = std::make_unique<fed::Publisher>(
      [this](fed::View view) { return current_doc(view); }, fed_opts);

  if (!config_.gossip_bind.empty()) {
    gossip::AgentOptions opts;
    opts.id = config_.grid_name;
    opts.address = config_.gossip_bind;
    opts.seeds = config_.gossip_seeds;
    opts.interval_us = config_.gossip_interval_s * kMicrosPerSecond;
    opts.fanout = config_.gossip_fanout;
    opts.t_fail_us = config_.gossip_t_fail_s * kMicrosPerSecond;
    opts.t_cleanup_us = config_.gossip_t_cleanup_s * kMicrosPerSecond;
    opts.connect_timeout_us = config_.connect_timeout_s * kMicrosPerSecond;
    opts.max_digest_bytes = config_.gossip_max_digest;
    // Independent deterministic stream per member id.
    std::uint64_t seed = 0xcbf29ce484222325ULL;
    for (const char c : config_.grid_name) {
      seed = (seed ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    opts.rng_seed = seed;
    opts.meta["source"] = config_.grid_name;
    opts.meta["xml"] = config_.xml_bind;
    if (!config_.authority.empty()) opts.meta["authority"] = config_.authority;
    if (!config_.gossip_parent.empty()) {
      opts.meta["parent"] = config_.gossip_parent;
    }
    if (!config_.federation_bind.empty()) {
      // Advertise the delta port so aggregators discovered through
      // membership poll incrementally instead of re-fetching full XML.
      opts.meta["fed"] = config_.federation_bind;
    }
    if (!config_.standby_for.empty()) {
      failover_ =
          std::make_unique<gossip::FailoverController>(config_.standby_for);
      failover_->set_on_promote([this](const std::string& primary) {
        GLOG(warn, "gmetad") << config_.grid_name << ": primary '" << primary
                             << "' declared DEAD; standing in for its subtree";
      });
      failover_->set_on_demote([this](const std::string& primary) {
        GLOG(info, "gmetad") << config_.grid_name << ": primary '" << primary
                             << "' recovered; handing its subtree back";
      });
    }
    gossip_ =
        std::make_unique<gossip::Agent>(std::move(opts), transport_, clock_);
    if (failover_) {
      gossip_->set_event_handler([this](const gossip::MemberEvent& event) {
        failover_->observe(event);
      });
    }
    if (config_.gossip_piggyback) {
      // Both halves of piggybacking: outbound digests ride our live poll
      // sessions (carrier), inbound ones arrive through the publisher on
      // the federation listener a parent is already polling.
      gossip_->set_carrier(
          [this](const std::string& peer_address, const std::string& payload) {
            return piggyback_digest(peer_address, payload);
          });
      publisher_->set_digest_handler([this](std::string_view payload) {
        return gossip_->handle_digest_payload(payload);
      });
    }
  }
}

Gmetad::~Gmetad() { stop(); }

DataSourceConfig Gmetad::finish_source_config(DataSourceConfig ds) const {
  if (!config_.federation_enabled) ds.federation_address.clear();
  ds.federation_max_frame = config_.federation_max_frame;
  ds.federation_resync_backoff_s = config_.federation_resync_backoff_s;
  return ds;
}

QueryContext Gmetad::context() {
  QueryContext ctx;
  ctx.grid_name = config_.grid_name;
  ctx.authority = config_.authority;
  ctx.mode = config_.mode;
  ctx.now = clock_.now_seconds();
  return ctx;
}

// ----------------------------------------------------------------- polling

std::vector<Gmetad::PollResult> Gmetad::poll_once() {
  const std::int64_t now = clock_.now_seconds();
  prune_expired_children(now);

  const auto to_poll = snapshot_sources();
  std::vector<PollResult> results(to_poll.size());
  if (pool_ && to_poll.size() > 1) {
    // Fan the round out; each worker writes its own slot (disjoint
    // indices), so results need no lock and stay in source order.
    std::latch done(static_cast<std::ptrdiff_t>(to_poll.size()));
    for (std::size_t i = 0; i < to_poll.size(); ++i) {
      pool_->submit([this, &results, &done, source = to_poll[i], now, i] {
        results[i] = poll_source(*source, now);
        done.count_down();
      });
    }
    done.wait();
  } else {
    for (std::size_t i = 0; i < to_poll.size(); ++i) {
      results[i] = poll_source(*to_poll[i], now);
    }
  }

  finish_round(now);
  return results;
}

Gmetad::PollResult Gmetad::poll_source(DataSource& source, std::int64_t now) {
  PollResult result;
  result.source = source.name();
  // The fetch is wait, not work: metering starts once bytes are in hand.
  // (Over the in-memory fabric the child produces its dump inside our
  // read() and charges its *own* meter for it.)  The delta session passes
  // our meter down so decode/apply CPU is charged without the I/O waits.
  // An N-level node keeps child grids in summary form only (below), so its
  // delta sessions ask for nothing more.
  const fed::View view = config_.mode == Mode::n_level ? fed::View::summary
                                                       : fed::View::tree;
  auto fetched = source.fetch(transport_,
                              config_.connect_timeout_s * kMicrosPerSecond,
                              now, view, &cpu_meter_);
  ScopedCpuMeter meter(cpu_meter_);
  if (!fetched.ok()) {
    result.error = fetched.error().to_string();
    // Keep serving the previous data, marked unreachable; RRD heartbeats
    // lapse on their own, writing the forensic unknown records.
    auto stale = SourceSnapshot::unreachable_from(store_.get(source.name()),
                                                 source.name(), now);
    render::prime_fragments(*stale, config_.mode);
    store_.publish(std::move(stale));
    return result;
  }
  result.bytes = fetched->bytes;
  bytes_polled_.fetch_add(fetched->bytes, std::memory_order_relaxed);

  std::optional<Report> report;
  if (fetched->report.has_value()) {
    // Delta path: the session already holds the parsed document.
    report = std::move(fetched->report);
  } else {
    auto parsed = parse_report(fetched->body);
    if (!parsed.ok()) {
      result.error = parsed.error().to_string();
      auto stale = SourceSnapshot::unreachable_from(store_.get(source.name()),
                                                   source.name(), now);
      render::prime_fragments(*stale, config_.mode);
      store_.publish(std::move(stale));
      return result;
    }
    report = std::move(*parsed);
  }

  // "Gmeta only keeps numerical summaries of data from clusters it is
  // not an authority on": in N-level mode remote grids are reduced to
  // summary form before they ever enter the store, shrinking state and
  // archive load alike.  (The 1-level design keeps everything — that is
  // precisely its scalability defect.)
  if (config_.mode == Mode::n_level) {
    for (Grid& grid : report->grids) {
      if (!grid.is_summary_form()) {
        grid.summary = grid.summarize();
        grid.clusters.clear();
        grid.grids.clear();
      }
    }
  }

  // The 1-level design performs no summarisation during polling (the
  // frontend computed its own); N-level summarises eagerly here, on the
  // summarisation time scale.
  auto snapshot = std::make_shared<SourceSnapshot>(
      source.name(), std::move(*report), now,
      /*eager_summary=*/config_.mode == Mode::n_level);
  if (config_.archive_enabled) archive_snapshot(*snapshot);
  // Materialise the publish-time render fragments here, on the poll worker,
  // so the query path never pays for a full-tree serialisation (it splices
  // these bytes instead) — charged to this node's meter like any other
  // summarisation work.
  render::prime_fragments(*snapshot, config_.mode);
  // One atomic swap: queries never see a half-parsed source.
  store_.publish(std::move(snapshot));
  result.ok = true;
  return result;
}

void Gmetad::prune_expired_children(std::int64_t now) {
  std::vector<JoinRegistry::Child> expired;
  {
    // Prune the registry and drop the matching sources under one lock: a
    // JOIN arriving between the two would otherwise re-register the child
    // while we erase its source, leaving a registry entry with no source
    // until the next expiry.
    std::lock_guard lock(sources_mutex_);
    expired = joins_.prune(now);
    for (const JoinRegistry::Child& child : expired) {
      std::erase_if(sources_, [&](const std::shared_ptr<DataSource>& ds) {
        return ds->name() == child.request.name;
      });
    }
  }
  for (const JoinRegistry::Child& child : expired) {
    GLOG(info, "gmetad") << config_.grid_name << ": pruning silent child '"
                         << child.request.name << "'";
    {
      std::lock_guard lock(schedule_mutex_);
      schedule_.erase(child.request.name);
    }
    store_.remove(child.request.name);
  }
}

void Gmetad::finish_round(std::int64_t now) {
  // Root-of-this-node summary archive (the grid's own history).  Part of
  // the N-level design's summarisation work; 2.5.1 had no equivalent.
  if (config_.archive_enabled && config_.mode == Mode::n_level) {
    ScopedCpuMeter meter(cpu_meter_);
    SummaryInfo total;
    for (const auto& snapshot : store_.all()) total.merge(snapshot->summary());
    archiver_.record_summary(config_.grid_name, total, now);
  }
  if (post_poll_hook_) post_poll_hook_(now);
}

std::vector<std::shared_ptr<DataSource>> Gmetad::snapshot_sources() const {
  std::lock_guard lock(sources_mutex_);
  return sources_;
}

void Gmetad::archive_snapshot(const SourceSnapshot& snapshot) {
  const std::int64_t now = clock_.now_seconds();

  // N-level: every source gets a source-level summary archive.
  if (config_.mode == Mode::n_level) {
    archiver_.record_summary(snapshot.name(), snapshot.summary(), now);
  }

  // Full-detail clusters: per-host metric archives, plus (N-level only) a
  // cluster summary archive.
  for (const Cluster& cluster : snapshot.clusters()) {
    archiver_.record_cluster(snapshot.name(), cluster, now);
    if (config_.mode == Mode::n_level) {
      archiver_.record_summary(snapshot.name() + "/" + cluster.name,
                               snapshot.cluster_summary(cluster), now);
    }
  }

  for (const Grid& grid : snapshot.grids()) {
    if (config_.mode == Mode::one_level) {
      // 1-level design: archive the entire remote subtree at host
      // granularity — the duplicated archives of paper fig 3 (right).
      struct Walker {
        Archiver& archiver;
        const std::string& source;
        std::int64_t now;
        void walk(const Grid& g) {
          for (const Cluster& c : g.clusters) {
            archiver.record_cluster(source, c, now);
          }
          for (const Grid& child : g.grids) walk(child);
        }
      } walker{archiver_, snapshot.name(), now};
      walker.walk(grid);
    }
    // N-level: the source-level summary recorded above is all we keep for
    // grids we are not the authority on.
  }
}

// ------------------------------------------------------------ serving

std::string Gmetad::dump_xml() {
  ScopedCpuMeter meter(cpu_meter_);
  return engine_.dump(context());
}

Result<std::string> Gmetad::query(std::string_view line) {
  ScopedCpuMeter meter(cpu_meter_);
  return engine_.execute(line, context());
}

Result<RenderedQuery> Gmetad::query_rendered(std::string_view line,
                                             render::Format format) {
  ScopedCpuMeter meter(cpu_meter_);
  return engine_.execute_rendered(line, context(), format);
}

render::Deps Gmetad::render_meta(render::Backend& backend) {
  ScopedCpuMeter meter(cpu_meter_);
  ParsedQuery meta;
  meta.summary = true;
  std::size_t matches = 0;
  std::string redirect;
  return engine_.render_with(meta, context(), backend, matches, redirect);
}

Result<std::string> Gmetad::handle_join_line(std::string_view line) {
  auto request = parse_join_line(line, config_.join_key);
  if (!request.ok()) return request.error();
  const std::int64_t now = clock_.now_seconds();
  // Registry refresh and source insertion happen under the sources lock so
  // a concurrent prune cannot interleave between them.
  std::lock_guard lock(sources_mutex_);
  auto fresh = joins_.refresh(*request, now);
  if (!fresh.ok()) return fresh.error();
  if (*fresh) {
    GLOG(info, "gmetad") << config_.grid_name << ": child '" << request->name
                         << "' joined from " << request->address;
    DataSourceConfig ds;
    ds.name = request->name;
    ds.addresses = {request->address};
    sources_.push_back(
        std::make_shared<DataSource>(finish_source_config(std::move(ds))));
  }
  return std::string("OK\n");
}

Result<std::string> Gmetad::handle_interactive(std::string_view line) {
  ScopedCpuMeter meter(cpu_meter_);
  const std::string_view trimmed = trim(line);
  if (starts_with(trimmed, "JOIN ")) return handle_join_line(trimmed);
  if (starts_with(trimmed, "HISTORY ")) return handle_history_line(trimmed);
  return engine_.execute(trimmed, context());
}

Result<std::string> Gmetad::handle_history_line(std::string_view line) {
  const auto fields = split_ws(line);
  if (fields.size() != 4) {
    return Err(Errc::invalid_argument,
               "expected 'HISTORY <path> <start> <end>'");
  }
  const auto start = parse_i64(fields[2]);
  const auto end = parse_i64(fields[3]);
  if (!start || !end) {
    return Err(Errc::invalid_argument, "HISTORY start/end must be integers");
  }
  return history(fields[1], *start, *end);
}

Result<std::string> Gmetad::history(std::string_view path, std::int64_t start,
                                    std::int64_t end) {
  const auto segments = split(trim(path), '/', /*skip_empty=*/true);
  Result<rrd::Series> series = Err(Errc::invalid_argument, "");
  std::string metric_name;
  if (segments.size() == 4) {
    metric_name = std::string(segments[3]);
    series = archiver_.fetch_host_metric(
        std::string(segments[0]), std::string(segments[1]),
        std::string(segments[2]), metric_name, start, end);
  } else if (segments.size() == 2 || segments.size() == 3) {
    // Summary scope: "source/metric" or "source/cluster/metric".
    metric_name = std::string(segments.back());
    std::string scope(segments[0]);
    for (std::size_t i = 1; i + 1 < segments.size(); ++i) {
      scope += "/" + std::string(segments[i]);
    }
    series = archiver_.fetch_summary_metric(scope, metric_name, start, end);
  } else {
    return Err(Errc::invalid_argument,
               "history path must be /source/cluster/host/metric or "
               "/scope.../metric");
  }
  if (!series.ok()) return series.error();

  // <SERIES NAME=".." START=".." STEP=".." END=".." CF="AVERAGE">v v U v</SERIES>
  std::string out;
  xml::XmlWriter w(out);
  w.declaration();
  w.open("SERIES");
  w.attr("NAME", metric_name);
  w.attr("PATH", trim(path));
  w.attr("START", series->start);
  w.attr("STEP", series->step);
  w.attr("END", series->end);
  w.attr("CF", rrd::cf_name(series->cf));
  std::string body;
  for (std::size_t i = 0; i < series->values.size(); ++i) {
    if (i > 0) body += ' ';
    body += rrd::is_unknown(series->values[i]) ? "U"
                                               : format_double(series->values[i]);
  }
  w.text(body);
  w.close();
  return out;
}

net::ServiceFn Gmetad::dump_service() {
  return [this](std::string_view) -> Result<std::string> {
    return dump_xml();
  };
}

net::ServiceFn Gmetad::interactive_service() {
  return [this](std::string_view request) -> Result<std::string> {
    // The request may carry a trailing newline from read_line-style writers.
    return handle_interactive(request);
  };
}

// --------------------------------------------- delta federation (serving)

fed::Doc Gmetad::current_doc(fed::View view) {
  // Version fold: the exact store state a document renders from is pinned
  // by (structure version, every per-source publish version) — and by the
  // clock second, because LOCALTIME/TN attributes derive from now.  Equal
  // folds therefore mean byte-identical documents, which is the publisher's
  // contract; a fold miss merely rebuilds.
  std::uint64_t structure = 0;
  const auto versioned = store_.all_versioned(&structure);
  const QueryContext ctx = context();
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  const auto mix = [&fold](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fold = (fold ^ (v & 0xff)) * 0x100000001b3ULL;
      v >>= 8;
    }
  };
  mix(structure);
  for (const Store::Versioned& v : versioned) mix(v.version);
  mix(static_cast<std::uint64_t>(ctx.now));
  mix(static_cast<std::uint64_t>(view));
  fold |= 1;  // 0 is the "no document yet" sentinel on the wire

  std::lock_guard lock(doc_mutex_);
  fed::Doc& doc = doc_cache_[static_cast<std::size_t>(view)];
  if (doc.report != nullptr && doc.version == fold) return doc;
  if (view == fed::View::summary) {
    doc.report = std::make_shared<const Report>(summary_doc(versioned, ctx));
  } else {
    render::ReportBuilder builder;
    std::size_t matches = 0;
    std::string redirect;
    (void)engine_.render_with(ParsedQuery{}, ctx, builder, matches, redirect);
    doc.report = std::make_shared<const Report>(builder.take());
  }
  doc.version = fold;
  return doc;
}

net::ServiceFn Gmetad::federation_service() {
  return [this](std::string_view request) -> Result<std::string> {
    ScopedCpuMeter meter(cpu_meter_);
    return publisher_->serve(request);
  };
}

std::optional<Result<std::string>> Gmetad::piggyback_digest(
    const std::string& peer_address, const std::string& payload) {
  if (!gossip_) return std::nullopt;
  // Gossip address -> the member's advertised delta endpoint -> the data
  // source already holding a session to it.  Any miss along the way means
  // no open channel, and the agent dials a gossip connection instead.
  std::string fed_address;
  for (const gossip::MemberEntry& member : gossip_->members()) {
    if (member.address != peer_address) continue;
    if (const auto fed = member.meta.find("fed"); fed != member.meta.end()) {
      fed_address = fed->second;
    }
    break;
  }
  if (fed_address.empty()) return std::nullopt;
  for (const auto& source : snapshot_sources()) {
    if (source->federation_address() != fed_address) continue;
    return source->piggyback_digest(
        transport_, config_.connect_timeout_s * kMicrosPerSecond, payload);
  }
  return std::nullopt;
}

Status Gmetad::send_join(const std::string& parent_interactive_address) {
  if (config_.join_key.empty()) {
    return Err(Errc::invalid_argument, "no join_key configured");
  }
  JoinRequest request;
  request.name = config_.grid_name;
  request.address = xml_address();
  request.authority = config_.authority;
  auto stream = transport_.connect(parent_interactive_address,
                                   config_.connect_timeout_s * kMicrosPerSecond);
  if (!stream.ok()) return stream.error();
  if (Status s = (*stream)->write_all(format_join_line(request, config_.join_key));
      !s.ok()) {
    return s;
  }
  auto reply = net::read_line(**stream);
  if (!reply.ok()) return reply.error();
  if (*reply != "OK") {
    return Err(Errc::refused, "parent rejected join: " + *reply);
  }
  return {};
}

// ------------------------------------------------------ gossip membership

void Gmetad::gossip_tick() {
  if (!gossip_) return;
  gossip_->tick();
  sync_membership_sources();
}

void Gmetad::sync_membership_sources() {
  if (!gossip_) return;

  // Desired child sources: every ALIVE member whose advertised parent is
  // either us (gossip_aggregate) or a primary we currently cover as a
  // standby.  The child names its aggregator — trust still points up the
  // tree, exactly like trusted_hosts.
  struct DesiredSource {
    std::string xml;
    std::string fed;  ///< delta endpoint ("" = XML polling only)
  };
  std::map<std::string, DesiredSource> desired;  // source name -> addresses
  for (const gossip::MemberEntry& member : gossip_->members()) {
    if (member.id == config_.grid_name) continue;
    if (member.state != gossip::MemberState::alive) continue;
    const auto parent = member.meta.find("parent");
    if (parent == member.meta.end()) continue;
    const bool mine =
        config_.gossip_aggregate && parent->second == config_.grid_name;
    const bool covered = failover_ && failover_->promoted(parent->second);
    if (!mine && !covered) continue;
    const auto xml = member.meta.find("xml");
    if (xml == member.meta.end()) continue;
    const auto source = member.meta.find("source");
    const std::string& name =
        source != member.meta.end() ? source->second : member.id;
    if (desired.size() < joins_.max_children()) {
      DesiredSource d;
      d.xml = xml->second;
      if (const auto fed = member.meta.find("fed");
          config_.federation_enabled && fed != member.meta.end()) {
        d.fed = fed->second;
      }
      desired.emplace(name, std::move(d));
    }
  }

  std::vector<std::string> dropped;
  std::lock_guard mlock(membership_mutex_);
  {
    std::lock_guard lock(sources_mutex_);
    for (const auto& [name, want] : desired) {
      const auto it = membership_sources_.find(name);
      if (it != membership_sources_.end() && it->second == want.xml) {
        // XML address unchanged; the advertised delta endpoint may still
        // have moved (set_federation_address is a no-op when it hasn't).
        for (const auto& ds : sources_) {
          if (ds->name() == name) ds->set_federation_address(want.fed);
        }
        continue;
      }
      if (it == membership_sources_.end()) {
        // Never shadow a statically configured or join-registered source.
        const bool taken = std::any_of(
            sources_.begin(), sources_.end(),
            [&](const std::shared_ptr<DataSource>& ds) {
              return ds->name() == name;
            });
        if (taken) continue;
        GLOG(info, "gmetad") << config_.grid_name << ": adopting source '"
                             << name << "' at " << want.xml
                             << " from gossip membership";
      } else {
        // The member came back on a new address: replace in place.
        std::erase_if(sources_, [&](const std::shared_ptr<DataSource>& ds) {
          return ds->name() == name;
        });
      }
      DataSourceConfig ds;
      ds.name = name;
      ds.addresses = {want.xml};
      ds.federation_address = want.fed;
      sources_.push_back(
          std::make_shared<DataSource>(finish_source_config(std::move(ds))));
      membership_sources_[name] = want.xml;
    }
    for (auto it = membership_sources_.begin();
         it != membership_sources_.end();) {
      if (desired.count(it->first) != 0) {
        ++it;
        continue;
      }
      GLOG(info, "gmetad") << config_.grid_name << ": dropping source '"
                           << it->first << "' (no longer in membership)";
      std::erase_if(sources_, [&](const std::shared_ptr<DataSource>& ds) {
        return ds->name() == it->first;
      });
      dropped.push_back(it->first);
      it = membership_sources_.erase(it);
    }
  }
  for (const std::string& name : dropped) {
    {
      std::lock_guard lock(schedule_mutex_);
      schedule_.erase(name);
    }
    store_.remove(name);
  }
}

// ------------------------------------------------------------- daemon mode

bool Gmetad::peer_trusted(const std::string& peer) const {
  if (config_.trusted_hosts.empty()) return true;
  const auto colon = peer.rfind(':');
  const std::string host = peer.substr(0, colon);
  for (const std::string& trusted : config_.trusted_hosts) {
    if (trusted == host || trusted == peer) return true;
  }
  GLOG(warn, "gmetad") << config_.grid_name << ": rejected untrusted peer "
                       << peer;
  return false;
}

Status Gmetad::start() {
  if (running_.exchange(true)) return {};

  if (!config_.archive_dir.empty()) {
    // Tolerant restore: cold starts and individually corrupt images are
    // not errors; only a real I/O failure reaches this warning.
    if (Status s = archiver_.load_from_disk(); !s.ok()) {
      GLOG(warn, "gmetad") << config_.grid_name
                           << ": archive restore failed: " << s.to_string();
    }
  }

  // Every port is a ServiceFn on one reactor.  Ports differ only in where
  // a request ends, whether the connection stays open, and who may
  // connect: parents and viewers must be trusted, gossip peers need not.
  const auto fail = [this](const Error& error) -> Status {
    server_.stop();
    running_ = false;
    return error;
  };
  const auto trusted = [this](const std::string& peer) {
    return peer_trusted(peer);
  };
  net::Port dump = net::dump_port();
  dump.admit = trusted;
  auto xml = server_.bind(transport_, config_.xml_bind, dump_service(), dump);
  if (!xml.ok()) return fail(xml.error());
  net::Port line = net::line_port();
  line.admit = trusted;
  auto interactive =
      server_.bind(transport_, config_.interactive_bind,
                   net::reply_errors(interactive_service()), line);
  if (!interactive.ok()) return fail(interactive.error());
  if (!config_.federation_bind.empty()) {
    // Persistent: a parent holds its session open across polls.
    net::Port framed{[this](std::string_view unread, net::ScanState& scan) {
                       return gossip::framed_request_end(
                           unread, scan, config_.federation_max_frame,
                           config_.gossip_max_digest);
                     },
                     /*keep_open=*/true, trusted};
    auto federation = server_.bind(transport_, config_.federation_bind,
                                   federation_service(), std::move(framed));
    if (!federation.ok()) return fail(federation.error());
    config_.federation_bind = *federation;
  }
  // Resolve ephemeral ports so every advertised address is dialable.
  config_.xml_bind = *xml;
  config_.interactive_bind = *interactive;
  if (config_.authority.empty()) {
    // Advertise the bound address so upstream summaries carry a usable
    // pointer to this node's higher-resolution view.
    config_.authority = "gmetad://" + config_.xml_bind + "/";
  }

  if (gossip_) {
    net::Port digest{[agent = gossip_.get()](std::string_view unread,
                                             net::ScanState& scan) {
                       return agent->request_end(unread, scan);
                     },
                     /*keep_open=*/false, {}};
    auto gossip_address = server_.bind(transport_, config_.gossip_bind,
                                       gossip_->service(), std::move(digest));
    if (gossip_address.ok()) {
      gossip_->set_self_address(*gossip_address);
      GLOG(info, "gmetad") << config_.grid_name << ": gossiping on "
                           << *gossip_address;
    } else {
      // Monitoring still works without membership; degrade loudly.
      GLOG(warn, "gmetad") << config_.grid_name << ": gossip port disabled: "
                           << gossip_address.error().to_string();
    }
    // Advertise the bound addresses before the first digest leaves.
    gossip_->set_self_meta("xml", config_.xml_bind);
    gossip_->set_self_meta("authority", config_.authority);
    if (!config_.federation_bind.empty()) {
      gossip_->set_self_meta("fed", config_.federation_bind);
    }
  }
  if (Status s = server_.start(); !s.ok()) return fail(s.error());

  // Write-behind persistence: a background flusher persists dirty archives
  // every archive_flush_interval_s (no-op when unset or interval 0).
  if (!config_.archive_dir.empty()) (void)archiver_.start_flusher();

  // Poller thread: 100 ms due-time ticks.  Each source carries its own
  // next-due timestamp, so mixed poll_interval_s settings are honoured
  // individually instead of everything polling at the global minimum.
  scheduler_ = std::jthread([this](std::stop_token token) {
    while (!token.stop_requested() && running_.load()) {
      tick_scheduler();
      clock_.sleep_us(kMicrosPerSecond / 10);
    }
  });
  GLOG(info, "gmetad") << config_.grid_name << ": serving dump on "
                       << xml_address() << ", queries on "
                       << interactive_address();
  return {};
}

void Gmetad::tick_scheduler() {
  const std::int64_t now = clock_.now_seconds();
  prune_expired_children(now);

  // Gossip rides the same due-time scheduler.  A round is a handful of
  // small exchanges (bounded by connect_timeout), cheap next to a poll.
  if (gossip_ && now >= next_gossip_due_s_) {
    next_gossip_due_s_ = now + std::max<std::int64_t>(1, config_.gossip_interval_s);
    gossip_tick();
  }

  const auto sources = snapshot_sources();

  // Keep idle delta sessions warm.  heartbeat() itself skips sources whose
  // session is busy or not established, so this is cheap; the in-flight
  // check just avoids dialing a source mid-poll.
  if (config_.federation_heartbeat_s > 0 && now >= next_heartbeat_due_s_) {
    next_heartbeat_due_s_ = now + config_.federation_heartbeat_s;
    for (const auto& source : sources) {
      bool busy = false;
      {
        std::lock_guard lock(schedule_mutex_);
        const auto it = schedule_.find(source->name());
        busy = it != schedule_.end() && it->second.in_flight;
      }
      if (!busy) {
        source->heartbeat(transport_,
                          config_.connect_timeout_s * kMicrosPerSecond);
      }
    }
  }

  std::vector<std::shared_ptr<DataSource>> due;
  {
    std::lock_guard lock(schedule_mutex_);
    for (const auto& source : sources) {
      SourceSchedule& entry = schedule_[source->name()];
      if (entry.in_flight || now < entry.next_due_s) continue;
      entry.in_flight = true;
      due.push_back(source);
    }
  }

  for (const auto& source : due) {
    auto task = [this, source] {
      const std::int64_t start_s = clock_.now_seconds();
      poll_source(*source, start_s);
      {
        std::lock_guard lock(schedule_mutex_);
        // find(), not operator[]: a prune may have erased this entry
        // while the poll was in flight, and it must stay erased.
        if (const auto it = schedule_.find(source->name());
            it != schedule_.end()) {
          it->second.in_flight = false;
          it->second.next_due_s = start_s + source->poll_interval_s();
        }
      }
      summary_dirty_.store(true, std::memory_order_relaxed);
    };
    if (pool_) {
      pool_->submit(std::move(task));
    } else {
      task();
    }
  }

  // Fold completed polls into the root summary (and fire the alarm hook)
  // at most once per tick, rather than once per source.
  if (summary_dirty_.exchange(false)) finish_round(now);
}

void Gmetad::stop() {
  if (!running_.exchange(false)) return;
  // Announce the departure while peers still answer: the LEFT tombstone
  // spares them the t_fail + t_cleanup detection wait.
  if (gossip_) gossip_->leave();
  server_.stop();  // closes every port and connection, joins the reactor
  scheduler_ = std::jthread();  // request_stop + join
  // Join the write-behind flusher *before* the final flush: the shutdown
  // flush must not race a periodic one, and a repeated stop() (or a stop()
  // racing an empty-dir cold start) is a silent no-op, not a warning.
  archiver_.stop_flusher();
  if (!config_.archive_dir.empty()) {
    if (Status s = archiver_.flush_to_disk(); !s.ok()) {
      GLOG(warn, "gmetad") << config_.grid_name
                           << ": archive flush failed: " << s.to_string();
    }
  }
}

std::vector<const DataSource*> Gmetad::sources() const {
  std::lock_guard lock(sources_mutex_);
  std::vector<const DataSource*> out;
  out.reserve(sources_.size());
  for (const auto& ds : sources_) out.push_back(ds.get());
  return out;
}

}  // namespace ganglia::gmetad
