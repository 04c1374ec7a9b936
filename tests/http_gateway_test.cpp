// Tests for the gmetad HTTP gateway: routing (/xml, /api/v1, /ui), the
// version+TTL response cache with ETag revalidation (per-source
// invalidation), and end-to-end service over both the in-memory fabric and
// real TCP.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gmetad/testbed.hpp"
#include "http/gateway.hpp"
#include "http_test_util.hpp"
#include "net/inmem.hpp"
#include "net/tcp.hpp"
#include "sim/sim_clock.hpp"

namespace ganglia::http {
namespace {

using testutil::fetch;
using testutil::read_response;

constexpr TimeUs kTimeout = 5 * kMicrosPerSecond;

gmetad::TestbedSpec single_node_spec() {
  gmetad::TestbedSpec spec;
  spec.nodes.push_back({"root", {}, {"meteor", "nashi"}});
  spec.hosts_per_cluster = 4;
  spec.mode = gmetad::Mode::n_level;
  return spec;
}

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest()
      : bed_(single_node_spec()),
        gateway_(bed_.node("root"), bed_.clock()) {
    bed_.run_rounds(3);  // populate the store and some archive history
  }

  static Request get(std::string target, std::string if_none_match = "") {
    Request request;
    request.method = "GET";
    request.target = std::move(target);
    request.headers.push_back({"Host", "gw"});
    if (!if_none_match.empty()) {
      request.headers.push_back({"If-None-Match", std::move(if_none_match)});
    }
    return request;
  }

  static std::string header(const Response& response, std::string_view name) {
    const std::string* value = response.find_header(name);
    return value ? *value : std::string();
  }

  gmetad::Testbed bed_;
  Gateway gateway_;
};

// --------------------------------------------------------------- routing

TEST_F(GatewayTest, IndexListsEndpoints) {
  const Response response = gateway_.handle(get("/"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("/ui/meta"), std::string::npos);
  EXPECT_NE(response.body.find("/api/v1"), std::string::npos);
}

TEST_F(GatewayTest, XmlRouteServesQueryEngine) {
  const Response response = gateway_.handle(get("/xml/"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(header(response, "Content-Type").find("xml"), std::string::npos);
  EXPECT_NE(response.body.find("GANGLIA_XML"), std::string::npos);
  EXPECT_NE(response.body.find("meteor"), std::string::npos);
  EXPECT_NE(response.body.find("nashi"), std::string::npos);

  const Response filtered = gateway_.handle(get("/xml/meteor?filter=summary"));
  EXPECT_EQ(filtered.status, 200);
  EXPECT_NE(filtered.body.find("meteor"), std::string::npos);
  EXPECT_EQ(filtered.body.find("nashi"), std::string::npos)
      << "path query must select one subtree";
}

TEST_F(GatewayTest, ApiRouteRendersJson) {
  const Response response = gateway_.handle(get("/api/v1/"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(header(response, "Content-Type"), "application/json");
  EXPECT_EQ(response.body.front(), '{');
  EXPECT_NE(response.body.find("\"clusters\""), std::string::npos);
  EXPECT_NE(response.body.find("\"meteor\""), std::string::npos);

  const Response host = gateway_.handle(get("/api/v1/meteor"));
  EXPECT_EQ(host.status, 200);
  EXPECT_NE(host.body.find("compute-0-0.local"), std::string::npos);
  EXPECT_NE(host.body.find("\"metrics\""), std::string::npos);
}

TEST_F(GatewayTest, ArchiverStatsRouteIsLiveAndUncached) {
  const Response response = gateway_.handle(get("/api/v1/archiver"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(header(response, "Content-Type"), "application/json");
  EXPECT_NE(response.body.find("\"ARCHIVER\""), std::string::npos);
  EXPECT_NE(response.body.find("\"DATABASES\""), std::string::npos);
  EXPECT_NE(response.body.find("\"UPDATES\""), std::string::npos);
  EXPECT_NE(response.body.find("\"DIRTY\""), std::string::npos);
  // Stats are a live counter read: served fresh, never via the cache.
  EXPECT_EQ(header(response, "X-Cache"), "bypass");
  EXPECT_EQ(header(response, "Cache-Control"), "no-store");
  const Response again = gateway_.handle(get("/api/v1/archiver"));
  EXPECT_EQ(header(again, "X-Cache"), "bypass");

  EXPECT_EQ(gateway_.handle(get("/api/v1/archiver?start=0")).status, 400)
      << "archiver stats take no query options";
}

TEST_F(GatewayTest, FederationStatsRouteIsLiveAndUncached) {
  const Response response = gateway_.handle(get("/api/v1/federation"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(header(response, "Content-Type"), "application/json");
  EXPECT_NE(response.body.find("\"FEDERATION\""), std::string::npos);
  EXPECT_NE(response.body.find("\"SOURCES\""), std::string::npos);
  EXPECT_NE(response.body.find("\"PUBLISHER\""), std::string::npos);
  EXPECT_NE(response.body.find("\"MODE\""), std::string::npos);
  // No federation endpoints in this testbed: every source polls legacy XML.
  EXPECT_NE(response.body.find("\"xml\""), std::string::npos);
  EXPECT_NE(response.body.find("\"DELTA_ERROR\":\"\""), std::string::npos)
      << "a source that never tried the delta path has no delta error";
  EXPECT_EQ(header(response, "X-Cache"), "bypass");
  EXPECT_EQ(header(response, "Cache-Control"), "no-store");

  EXPECT_EQ(gateway_.handle(get("/api/v1/federation?x=1")).status, 400)
      << "federation stats take no query options";
}

TEST(GatewayFederation, ReportsDeltaSessionsWhenFederated) {
  gmetad::TestbedSpec spec = single_node_spec();
  spec.federation = true;
  spec.soft_state = true;
  gmetad::Testbed bed(spec);
  bed.run_rounds(3);  // first poll full, later polls incremental
  Gateway gateway(bed.node("root"), bed.clock());
  Request request;
  request.method = "GET";
  request.target = "/api/v1/federation";
  request.headers.push_back({"Host", "gw"});
  const Response response = gateway.handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"delta\""), std::string::npos)
      << "live sessions must report mode delta: " << response.body;
  EXPECT_EQ(response.body.find("\"DELTA_POLLS\":0,"), std::string::npos)
      << "every source should have polled incrementally: " << response.body;
  EXPECT_NE(response.body.find("\"BYTES_SAVED\""), std::string::npos);
  EXPECT_NE(response.body.find("\"DELTA_ERROR\":\"\""), std::string::npos)
      << "live delta sessions carry no delta error: " << response.body;
}

TEST_F(GatewayTest, UiMetaView) {
  const Response response = gateway_.handle(get("/ui/meta"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(header(response, "Content-Type").find("text/html"),
            std::string::npos);
  EXPECT_NE(response.body.find("meteor"), std::string::npos);
  EXPECT_NE(response.body.find("nashi"), std::string::npos);
}

TEST_F(GatewayTest, UiClusterView) {
  const Response response = gateway_.handle(get("/ui/cluster/meteor"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("compute-0-0.local"), std::string::npos);
}

TEST_F(GatewayTest, UiHostViewWithGraphs) {
  const Response response =
      gateway_.handle(get("/ui/host/meteor/compute-0-0.local"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("compute-0-0.local"), std::string::npos);
  EXPECT_NE(response.body.find("<svg"), std::string::npos)
      << "host page should inline RRD graphs for archived metrics";
}

TEST_F(GatewayTest, UnknownTargetsAre404) {
  EXPECT_EQ(gateway_.handle(get("/nope")).status, 404);
  EXPECT_EQ(gateway_.handle(get("/ui/cluster/nosuch")).status, 404);
  EXPECT_EQ(gateway_.handle(get("/ui/host/meteor/ghost.local")).status, 404);
  EXPECT_EQ(gateway_.handle(get("/xml/nosuch")).status, 404);
}

TEST_F(GatewayTest, NonGetIs405WithAllow) {
  Request request = get("/ui/meta");
  request.method = "POST";
  const Response response = gateway_.handle(request);
  EXPECT_EQ(response.status, 405);
  EXPECT_EQ(header(response, "Allow"), "GET, HEAD");
}

TEST_F(GatewayTest, BadEscapesAndQueriesAre400) {
  EXPECT_EQ(gateway_.handle(get("/ui/%zz")).status, 400);
  EXPECT_EQ(gateway_.handle(get("/xml/?filter=bogus")).status, 400);
}

TEST_F(GatewayTest, HeadMirrorsGet) {
  Request request = get("/ui/meta");
  request.method = "HEAD";
  const Response response = gateway_.handle(request);
  // The gateway treats HEAD like GET; the *server* drops the body when
  // serialising, so handle() still carries it here.
  EXPECT_EQ(response.status, 200);
  EXPECT_FALSE(header(response, "ETag").empty());
}

// --------------------------------------------------------------- caching

TEST_F(GatewayTest, SecondRequestIsCacheHit) {
  const Response first = gateway_.handle(get("/ui/meta"));
  const Response second = gateway_.handle(get("/ui/meta"));
  EXPECT_EQ(header(first, "X-Cache"), "miss");
  EXPECT_EQ(header(second, "X-Cache"), "hit");
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(header(first, "ETag"), header(second, "ETag"));
  EXPECT_EQ(header(second, "Cache-Control"), "no-cache");
}

TEST_F(GatewayTest, NormalizedPathsShareTheCacheEntry) {
  (void)gateway_.handle(get("/ui/meta"));
  const Response alias = gateway_.handle(get("/ui//meta/"));
  EXPECT_EQ(header(alias, "X-Cache"), "hit");
}

TEST_F(GatewayTest, IfNoneMatchRevalidatesTo304) {
  const Response first = gateway_.handle(get("/api/v1/"));
  const std::string etag = header(first, "ETag");
  ASSERT_FALSE(etag.empty());

  const Response revalidated = gateway_.handle(get("/api/v1/", etag));
  EXPECT_EQ(revalidated.status, 304);
  EXPECT_TRUE(revalidated.body.empty());
  EXPECT_EQ(header(revalidated, "ETag"), etag);

  // A weak-prefixed or listed validator still matches.
  EXPECT_EQ(gateway_.handle(get("/api/v1/", "W/" + etag)).status, 304);
  EXPECT_EQ(gateway_.handle(get("/api/v1/", "\"zzz\", " + etag)).status, 304);
}

TEST_F(GatewayTest, SnapshotSwapInvalidatesEtag) {
  const Response first = gateway_.handle(get("/ui/meta"));
  const std::string etag = header(first, "ETag");
  ASSERT_EQ(gateway_.handle(get("/ui/meta", etag)).status, 304);

  bed_.run_round();  // snapshot swap bumps the store epoch

  const Response after = gateway_.handle(get("/ui/meta", etag));
  EXPECT_EQ(after.status, 200) << "a pre-swap ETag must stop matching";
  EXPECT_EQ(header(after, "X-Cache"), "miss");
  EXPECT_NE(header(after, "ETag"), etag);
}

TEST_F(GatewayTest, PublishingOneSourceKeepsOtherEntriesValid) {
  const Response meteor = gateway_.handle(get("/xml/meteor"));
  const Response nashi = gateway_.handle(get("/xml/nashi"));
  const std::string meteor_etag = header(meteor, "ETag");
  const std::string nashi_etag = header(nashi, "ETag");
  ASSERT_EQ(gateway_.handle(get("/xml/meteor", meteor_etag)).status, 304);
  ASSERT_EQ(gateway_.handle(get("/xml/nashi", nashi_etag)).status, 304);

  // Republish meteor only: a fresh snapshot built from its current data.
  gmetad::Store& store = bed_.node("root").store();
  auto current = store.get("meteor");
  ASSERT_NE(current, nullptr);
  Report report;
  report.clusters = current->clusters();
  report.grids = current->grids();
  store.publish(std::make_shared<gmetad::SourceSnapshot>(
      "meteor", std::move(report), current->fetched_at()));

  const Response meteor_after =
      gateway_.handle(get("/xml/meteor", meteor_etag));
  EXPECT_EQ(meteor_after.status, 200)
      << "a pre-publish ETag for the published source must stop matching";
  EXPECT_EQ(header(meteor_after, "X-Cache"), "miss");

  const Response nashi_after = gateway_.handle(get("/xml/nashi", nashi_etag));
  EXPECT_EQ(nashi_after.status, 304)
      << "publishing meteor must leave nashi's cached response valid";
  EXPECT_EQ(header(nashi_after, "X-Cache"), "hit");
}

TEST_F(GatewayTest, TtlFloorExpiresWithoutEpochChange) {
  GatewayOptions options;
  options.cache_ttl_s = 10;
  Gateway gateway(bed_.node("root"), bed_.clock(), options);

  EXPECT_EQ(header(gateway.handle(get("/ui/meta")), "X-Cache"), "miss");
  EXPECT_EQ(header(gateway.handle(get("/ui/meta")), "X-Cache"), "hit");
  bed_.clock().advance_seconds(11);  // no poll round: epoch is unchanged
  EXPECT_EQ(header(gateway.handle(get("/ui/meta")), "X-Cache"), "miss")
      << "the TTL floor must bound staleness even without snapshot swaps";
}

TEST_F(GatewayTest, ErrorsAreNeverCached) {
  ASSERT_EQ(gateway_.handle(get("/ui/cluster/nosuch")).status, 404);
  EXPECT_EQ(gateway_.cache().size(), 0u);
}

// ------------------------------------------------------------ end-to-end

TEST_F(GatewayTest, ServesOverInMemTransport) {
  GatewayServer server(bed_.node("root"), bed_.clock());
  ASSERT_TRUE(server.start(bed_.transport(), "gw.http:80").ok());

  auto response = fetch(bed_.transport(), "gw.http:80", "/ui/meta");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("meteor"), std::string::npos);
  EXPECT_EQ(response->header("X-Cache"), "miss");

  auto again = fetch(bed_.transport(), "gw.http:80", "/ui/meta");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_EQ(again->header("X-Cache"), "hit");
  EXPECT_EQ(again->body, response->body);
  server.stop();
}

TEST_F(GatewayTest, PipelinedRequestsOverInMem) {
  GatewayServer server(bed_.node("root"), bed_.clock());
  ASSERT_TRUE(server.start(bed_.transport(), "gw.http:80").ok());

  auto stream = bed_.transport().connect("gw.http:80", kTimeout);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(
      (*stream)
          ->write_all(
              "GET /api/v1/ HTTP/1.1\r\nHost: gw\r\n\r\n"
              "GET /ui/meta HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\r\n")
          .ok());
  auto all = net::read_to_eof(**stream);
  ASSERT_TRUE(all.ok()) << all.error().to_string();
  const std::size_t json = all->find("application/json");
  const std::size_t html = all->find("text/html");
  ASSERT_NE(json, std::string::npos);
  ASSERT_NE(html, std::string::npos);
  EXPECT_LT(json, html) << "responses must come back in request order";
  server.stop();
}

TEST_F(GatewayTest, RevalidationOverTheWire) {
  GatewayServer server(bed_.node("root"), bed_.clock());
  ASSERT_TRUE(server.start(bed_.transport(), "gw.http:80").ok());

  auto first = fetch(bed_.transport(), "gw.http:80", "/api/v1/meteor");
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  const std::string etag = first->header("ETag");
  ASSERT_FALSE(etag.empty());

  auto revalidated =
      fetch(bed_.transport(), "gw.http:80", "/api/v1/meteor",
            "If-None-Match: " + etag + "\r\n");
  ASSERT_TRUE(revalidated.ok()) << revalidated.error().to_string();
  EXPECT_EQ(revalidated->status, 304);
  EXPECT_TRUE(revalidated->body.empty());

  bed_.run_round();
  auto after_swap =
      fetch(bed_.transport(), "gw.http:80", "/api/v1/meteor",
            "If-None-Match: " + etag + "\r\n");
  ASSERT_TRUE(after_swap.ok()) << after_swap.error().to_string();
  EXPECT_EQ(after_swap->status, 200);
  server.stop();
}

// ------------------------------------------------- gossip membership route

TEST_F(GatewayTest, MembersRouteIs404WithoutGossip) {
  const Response response = gateway_.handle(get("/api/v1/members"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("not enabled"), std::string::npos);
}

TEST(MembersRoute, ServesLiveMemberTableUncached) {
  sim::SimClock clock;
  net::InMemTransport fabric;
  auto config = gmetad::parse_config(R"(
    gridname "solo"
    authority "http://solo/"
    archive off
    gossip_bind solo:8654
    gossip_interval 1
  )");
  ASSERT_TRUE(config.ok());
  gmetad::Gmetad monitor(*config, fabric, clock);
  fabric.register_service("solo:8654", monitor.membership()->service());
  clock.advance_us(kMicrosPerSecond);
  monitor.gossip_tick();

  Gateway gateway(monitor, clock);
  Request request;
  request.method = "GET";
  request.target = "/api/v1/members";
  request.headers.push_back({"Host", "gw"});
  const Response response = gateway.handle(request);
  ASSERT_EQ(response.status, 200);
  const std::string* cache_control = response.find_header("Cache-Control");
  ASSERT_NE(cache_control, nullptr);
  EXPECT_EQ(*cache_control, "no-store");
  EXPECT_EQ(response.find_header("ETag"), nullptr)
      << "live views carry no validator";
  EXPECT_NE(response.body.find("\"MEMBERS\""), std::string::npos);
  EXPECT_NE(response.body.find("\"solo\""), std::string::npos);
  EXPECT_NE(response.body.find("\"ALIVE\""), std::string::npos);
  EXPECT_NE(response.body.find("\"SELF\""), std::string::npos);

  request.target = "/api/v1/members?filter=summary";
  EXPECT_EQ(gateway.handle(request).status, 400)
      << "membership view takes no query options";
}

// ------------------------------------------------- server counters route

TEST_F(GatewayTest, ServerRouteIs404WithoutServer) {
  const Response response = gateway_.handle(get("/api/v1/server"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("no http server"), std::string::npos);
}

TEST_F(GatewayTest, ServerRouteReportsLiveCountersUncached) {
  GatewayServer server(bed_.node("root"), bed_.clock());
  ASSERT_TRUE(server.start(bed_.transport(), "gw.http:80").ok());

  ASSERT_TRUE(fetch(bed_.transport(), "gw.http:80", "/ui/meta").ok());
  auto response = fetch(bed_.transport(), "gw.http:80", "/api/v1/server");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->header("Content-Type"), "application/json");
  EXPECT_EQ(response->header("Cache-Control"), "no-store");
  EXPECT_TRUE(response->header("ETag").empty())
      << "live counters carry no validator";
  EXPECT_NE(response->body.find("\"SERVER\""), std::string::npos);
  EXPECT_NE(response->body.find("\"CONNECTIONS\""), std::string::npos);
  EXPECT_NE(response->body.find("\"REQUESTS\""), std::string::npos);
  EXPECT_NE(response->body.find("\"BAD_REQUESTS\""), std::string::npos);
  EXPECT_NE(response->body.find("\"REJECTED_OVER_CAP\""), std::string::npos);
  EXPECT_NE(response->body.find("\"TIMEOUTS\""), std::string::npos);
  EXPECT_NE(response->body.find("\"BACKPRESSURE\""), std::string::npos);

  // Each fetch moves the counters, so consecutive snapshots must differ —
  // the observable proof nothing got cached along the way.
  auto again = fetch(bed_.transport(), "gw.http:80", "/api/v1/server");
  ASSERT_TRUE(again.ok()) << again.error().to_string();
  EXPECT_NE(again->body, response->body);

  auto bad =
      fetch(bed_.transport(), "gw.http:80", "/api/v1/server?filter=summary");
  ASSERT_TRUE(bad.ok()) << bad.error().to_string();
  EXPECT_EQ(bad->status, 400) << "server stats take no query options";
  server.stop();
}

TEST_F(GatewayTest, ServesOverRealTcp) {
  GatewayServer server(bed_.node("root"), bed_.clock());
  net::TcpTransport tcp;
  ASSERT_TRUE(server.start(tcp, "127.0.0.1:0").ok());

  auto response = fetch(tcp, server.address(), "/api/v1/");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->header("Content-Type"), "application/json");
  server.stop();
}

}  // namespace
}  // namespace ganglia::http
