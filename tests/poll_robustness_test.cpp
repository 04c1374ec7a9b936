// Poll-path robustness: sources that serve garbage, empty bodies, slow
// trickles, or flap between good and bad — the monitor must degrade to
// "unreachable with stale data", never corrupt its store or crash.

#include <gtest/gtest.h>

#include "fed/codec.hpp"
#include "gmetad/gmetad.hpp"
#include "gmon/pseudo_gmond.hpp"
#include "net/framing.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::gmetad {
namespace {

struct Rig {
  sim::SimClock clock;
  net::InMemTransport transport;
  std::unique_ptr<Gmetad> monitor;

  explicit Rig(const std::string& address) {
    GmetadConfig config;
    config.grid_name = "robust";
    config.archive_enabled = false;
    DataSourceConfig ds;
    ds.name = "victim";
    ds.addresses = {address};
    config.sources.push_back(ds);
    monitor = std::make_unique<Gmetad>(config, transport, clock);
  }

  struct PollResultsSummary {
    bool ok;
    std::string error;
  };

  PollResultsSummary poll() {
    clock.advance_seconds(15);
    const auto results = monitor->poll_once();
    return {results.front().ok, results.front().error};
  }
};

TEST(PollRobustness, GarbageXmlMarksSourceUnreachable) {
  Rig rig("victim:1");
  rig.transport.register_service("victim:1", [](std::string_view) {
    return Result<std::string>("this is not XML at all <<<>>>");
  });
  const auto result = rig.poll();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("parse_error"), std::string::npos);
  auto snapshot = rig.monitor->store().get("victim");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_FALSE(snapshot->reachable());
}

TEST(PollRobustness, WellFormedButWrongDialectRejected) {
  Rig rig("victim:1");
  rig.transport.register_service("victim:1", [](std::string_view) {
    return Result<std::string>("<HTML><BODY>not ganglia</BODY></HTML>");
  });
  EXPECT_FALSE(rig.poll().ok);
}

TEST(PollRobustness, EmptyBodyRejected) {
  Rig rig("victim:1");
  rig.transport.register_service("victim:1", [](std::string_view) {
    return Result<std::string>("");
  });
  EXPECT_FALSE(rig.poll().ok);
}

TEST(PollRobustness, FlappingSourceKeepsLatestGoodData) {
  Rig rig("victim:1");
  sim::SimClock& clock = rig.clock;
  gmon::PseudoGmondConfig config;
  config.cluster_name = "victim";
  config.host_count = 3;
  gmon::PseudoGmond emulator(config, clock);

  bool healthy = true;
  rig.transport.register_service(
      "victim:1", [&](std::string_view) -> Result<std::string> {
        if (healthy) return emulator.report_xml();
        return Result<std::string>("<BROKEN");
      });

  EXPECT_TRUE(rig.poll().ok);
  EXPECT_EQ(rig.monitor->store().get("victim")->host_count(), 3u);

  healthy = false;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(rig.poll().ok);
    auto snapshot = rig.monitor->store().get("victim");
    EXPECT_FALSE(snapshot->reachable());
    EXPECT_EQ(snapshot->host_count(), 3u) << "stale data retained";
  }

  healthy = true;
  EXPECT_TRUE(rig.poll().ok);
  EXPECT_TRUE(rig.monitor->store().get("victim")->reachable());
}

TEST(PollRobustness, TruncatedXmlStreamRejected) {
  Rig rig("victim:1");
  sim::SimClock& clock = rig.clock;
  gmon::PseudoGmondConfig config;
  config.cluster_name = "victim";
  config.host_count = 10;
  gmon::PseudoGmond emulator(config, clock);
  rig.transport.register_service("victim:1",
                                 [&](std::string_view) -> Result<std::string> {
                                   std::string xml_text = emulator.report_xml();
                                   xml_text.resize(xml_text.size() / 2);
                                   return xml_text;
                                 });
  const auto result = rig.poll();
  EXPECT_FALSE(result.ok);
}

TEST(PollRobustness, EnormousResponseBounded) {
  Rig rig("victim:1");
  // 128 MB of 'x' would blow past read_to_eof's 64 MB cap.
  rig.transport.register_service("victim:1", [](std::string_view) {
    return Result<std::string>(std::string(128u << 20, 'x'));
  });
  const auto result = rig.poll();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("exceeds"), std::string::npos);
}

TEST(PollRobustness, QueriesKeepWorkingWhileSourceIsBroken) {
  Rig rig("victim:1");
  sim::SimClock& clock = rig.clock;
  gmon::PseudoGmondConfig config;
  config.cluster_name = "victim";
  config.host_count = 4;
  gmon::PseudoGmond emulator(config, clock);
  bool healthy = true;
  rig.transport.register_service(
      "victim:1", [&](std::string_view) -> Result<std::string> {
        if (healthy) return emulator.report_xml();
        return Err(Errc::internal, "wedged");
      });
  ASSERT_TRUE(rig.poll().ok);
  healthy = false;
  ASSERT_FALSE(rig.poll().ok);

  // The paper's freshness-for-latency trade: queries serve the previous
  // fully-parsed data.
  auto response = rig.monitor->query("/victim");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  auto parsed = parse_report(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->grids.front().host_count(), 4u);
}

// ----------------------------------------------------- delta federation
//
// Loss-robustness proof for the incremental poll path: whatever happens to
// the delta endpoint — refused connects, mid-stream truncation, the child
// restarting and losing all session state — the delta-fed monitor must
// converge to the exact same tree a legacy full-XML monitor holds, and
// must return to incremental operation once the fault clears.

struct FedRig {
  sim::SimClock clock;
  net::InMemTransport transport;
  std::unique_ptr<gmon::PseudoGmond> emulator;
  std::unique_ptr<Gmetad> fed;  ///< polls the delta endpoint first
  std::unique_ptr<Gmetad> ref;  ///< legacy full-XML fetches only

  explicit FedRig(std::int64_t backoff_s = 0) {
    gmon::PseudoGmondConfig gconfig;
    gconfig.cluster_name = "victim";
    gconfig.host_count = 5;
    gconfig.soft_state_timers = true;
    emulator = std::make_unique<gmon::PseudoGmond>(gconfig, clock);
    transport.register_service("victim:xml", emulator->service());
    transport.register_service("victim:fed", emulator->federation_service());
    fed = make_monitor(true, backoff_s);
    ref = make_monitor(false, 0);
  }

  std::unique_ptr<Gmetad> make_monitor(bool federated, std::int64_t backoff) {
    GmetadConfig config;
    config.grid_name = "robust";
    config.authority = "gmetad://robust/";
    config.archive_enabled = false;
    config.federation_resync_backoff_s = backoff;
    DataSourceConfig ds;
    ds.name = "victim";
    ds.addresses = {"victim:xml"};
    if (federated) ds.federation_address = "victim:fed";
    config.sources.push_back(std::move(ds));
    return std::make_unique<Gmetad>(std::move(config), transport, clock);
  }

  const DataSource& source() { return *fed->sources().front(); }

  /// One round for both monitors; returns the federated monitor's result.
  Gmetad::PollResult round() {
    clock.advance_seconds(15);
    auto fed_results = fed->poll_once();
    auto ref_results = ref->poll_once();
    EXPECT_TRUE(ref_results.front().ok) << ref_results.front().error;
    return fed_results.front();
  }

  void expect_converged(const char* when) {
    EXPECT_EQ(fed->dump_xml(), ref->dump_xml())
        << "delta-fed store diverged from full-fetch store " << when;
  }
};

TEST(PollRobustness, DeltaSteadyStateMatchesFullFetch) {
  FedRig rig;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(rig.round().ok);
    rig.expect_converged("in steady state");
  }
  EXPECT_GT(rig.source().delta_polls(), 0u);
  EXPECT_EQ(rig.source().session_mode(rig.clock.now_seconds()), "delta");
  EXPECT_GT(rig.source().bytes_saved(), 0u);
}

TEST(PollRobustness, DeltaEndpointRefusedFallsBackToXmlThenRecovers) {
  FedRig rig(/*backoff_s=*/60);
  ASSERT_TRUE(rig.round().ok);  // first poll: session established

  // Stop failure on the delta port only: every poll keeps succeeding over
  // the legacy dump, and the source enters resync backoff.
  rig.transport.set_failure("victim:fed",
                            {net::FailurePolicy::Kind::refuse, 0, -1});
  const std::uint64_t resyncs_before = rig.source().delta_resyncs();
  ASSERT_TRUE(rig.round().ok);
  rig.expect_converged("after a refused delta poll");
  EXPECT_GT(rig.source().delta_resyncs(), resyncs_before);
  EXPECT_EQ(rig.source().session_mode(rig.clock.now_seconds()), "backoff");
  EXPECT_EQ(rig.source().last_error(), "") << "the XML dump carried the poll";
  EXPECT_NE(rig.source().delta_error(), "")
      << "why the delta path failed outlives the XML fallback";

  // Inside the backoff window the delta port is not re-dialed: connects to
  // it stay flat while polls keep flowing over XML.
  const auto dials_during_backoff =
      rig.transport.stats("victim:fed").connects;
  ASSERT_TRUE(rig.round().ok);
  ASSERT_TRUE(rig.round().ok);
  EXPECT_EQ(rig.transport.stats("victim:fed").connects, dials_during_backoff)
      << "backoff must stop re-dialing a dead delta port every poll";
  rig.expect_converged("while backed off");

  // Fault clears, backoff expires: the source returns to incremental.
  rig.transport.clear_failure("victim:fed");
  const std::uint64_t deltas_before = rig.source().delta_polls();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(rig.round().ok);
  rig.expect_converged("after recovery");
  EXPECT_GT(rig.source().delta_polls(), deltas_before);
  EXPECT_EQ(rig.source().session_mode(rig.clock.now_seconds()), "delta");
  EXPECT_EQ(rig.source().delta_error(), "") << "a delta success clears it";
}

TEST(PollRobustness, CodecV1ClientFallsBackToXml) {
  // A client of the previous codec version: its polls are rewritten to
  // codec version 1 on the way to the publisher.  Every poll gets the
  // version-mismatch error frame and is carried by the legacy XML dump, so
  // the store stays byte-identical and no delta is ever applied.
  FedRig rig;
  auto publisher = rig.emulator->federation_service();
  std::string response;
  rig.transport.unregister_service("victim:fed");
  rig.transport.register_service(
      "victim:fed",
      [publisher, &response](std::string_view request) -> Result<std::string> {
        net::Frame frame;
        std::size_t consumed = 0;
        if (net::parse_frame(request, fed::kMaxFrameBytes, frame, consumed) !=
            net::FrameParse::ok) {
          return Err(Errc::parse_error, "unframed request");
        }
        auto poll = fed::decode_request(frame.type, frame.payload);
        if (!poll.ok()) return poll.error();
        poll->codec_version = 1;
        auto answer = publisher(fed::encode_poll(*poll));
        if (answer.ok()) response = *answer;
        return answer;
      });
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(rig.round().ok);
    rig.expect_converged("with a codec-v1 client");
  }
  EXPECT_EQ(rig.source().delta_polls(), 0u);
  EXPECT_GE(rig.source().delta_resyncs(), 4u) << "each poll fell back";
  EXPECT_EQ(rig.source().session_mode(rig.clock.now_seconds()), "sync");
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(response, fed::kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);
  EXPECT_EQ(frame.type, fed::kFrameError);
  EXPECT_EQ(frame.payload, "codec version mismatch");
  EXPECT_NE(rig.source().delta_error().find("codec version mismatch"),
            std::string::npos)
      << "the reason survives the XML fallback polls: "
      << rig.source().delta_error();
}

TEST(PollRobustness, SessionKilledMidDeltaResyncsWithoutDivergence) {
  FedRig rig;
  ASSERT_TRUE(rig.round().ok);
  ASSERT_TRUE(rig.round().ok);  // warm: session live, deltas flowing
  ASSERT_GT(rig.source().delta_polls(), 0u);

  // Cut the next delta response mid-stream.  The poll still succeeds (XML
  // carries it), the torn base is dropped, and the next delta poll
  // resyncs from a full transfer — never applying a torn document.
  rig.transport.set_failure(
      "victim:fed", {net::FailurePolicy::Kind::truncate, 40, 1});
  const std::uint64_t resyncs_before = rig.source().delta_resyncs();
  ASSERT_TRUE(rig.round().ok);
  rig.expect_converged("after a truncated delta stream");
  EXPECT_GT(rig.source().delta_resyncs(), resyncs_before);

  // Next rounds re-establish the session and go incremental again.
  const std::uint64_t deltas_before = rig.source().delta_polls();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.round().ok);
    rig.expect_converged("after resync");
  }
  EXPECT_GT(rig.source().delta_polls(), deltas_before);
}

TEST(PollRobustness, ChildRestartForcesFullResyncNotDivergence) {
  // Parent gmetads polling a child gmetad over the delta protocol; the
  // child restarts (all publisher session state lost) between rounds.
  sim::SimClock clock;
  net::InMemTransport transport;
  gmon::PseudoGmondConfig gconfig;
  gconfig.cluster_name = "leafcluster";
  gconfig.host_count = 4;
  gconfig.soft_state_timers = true;
  gmon::PseudoGmond emulator(gconfig, clock);
  transport.register_service("leafcluster:xml", emulator.service());

  GmetadConfig child_config;
  child_config.grid_name = "child";
  child_config.authority = "gmetad://child/";
  child_config.archive_enabled = false;
  DataSourceConfig child_ds;
  child_ds.name = "leafcluster";
  child_ds.addresses = {"leafcluster:xml"};
  child_config.sources.push_back(child_ds);

  const auto start_child = [&] {
    auto child = std::make_unique<Gmetad>(child_config, transport, clock);
    transport.register_service("child:xml", child->dump_service());
    transport.register_service("child:fed", child->federation_service());
    return child;
  };
  auto child = start_child();

  const auto make_parent = [&](bool federated) {
    GmetadConfig config;
    config.grid_name = "parent";
    config.authority = "gmetad://parent/";
    config.archive_enabled = false;
    DataSourceConfig ds;
    ds.name = "child";
    ds.addresses = {"child:xml"};
    if (federated) ds.federation_address = "child:fed";
    config.sources.push_back(std::move(ds));
    return std::make_unique<Gmetad>(std::move(config), transport, clock);
  };
  auto fed_parent = make_parent(true);
  auto ref_parent = make_parent(false);

  const auto round = [&] {
    clock.advance_seconds(15);
    ASSERT_TRUE(child->poll_once().front().ok);
    ASSERT_TRUE(fed_parent->poll_once().front().ok);
    ASSERT_TRUE(ref_parent->poll_once().front().ok);
    ASSERT_EQ(fed_parent->dump_xml(), ref_parent->dump_xml());
  };

  round();
  round();
  const DataSource& source = *fed_parent->sources().front();
  ASSERT_GT(source.delta_polls(), 0u);

  // Restart: fresh publisher, no sessions.  The parent's next delta poll
  // presents a version the child no longer knows — it must be answered
  // with a full resync, not garbage and not divergence.
  transport.unregister_service("child:xml");
  transport.unregister_service("child:fed");
  child = start_child();
  const std::uint64_t resyncs_before = source.delta_resyncs();
  const std::uint64_t fulls_before = source.full_polls();
  round();
  EXPECT_GT(source.delta_resyncs() + source.full_polls(),
            resyncs_before + fulls_before)
      << "restart must surface as a counted full resync";
  round();
  round();
  EXPECT_EQ(source.session_mode(clock.now_seconds()), "delta")
      << "session must re-establish after the restart";
}

}  // namespace
}  // namespace ganglia::gmetad
