// Tests for the unified render pipeline: fragment splicing must be
// byte-identical to the walk it replaces (both formats, both modes), the
// poll path must prime exactly the fragments readers asked for, and the
// store's per-source versioning must behave as the cache invalidation
// layer assumes.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gmetad/query.hpp"
#include "gmetad/render/deps.hpp"
#include "gmetad/render/fragments.hpp"
#include "gmetad/store.hpp"
#include "gmetad/testbed.hpp"

namespace ganglia::gmetad {
namespace {

Report cluster_report(const std::string& name, int hosts) {
  Report report;
  Cluster c;
  c.name = name;
  c.localtime = 500;
  for (int i = 0; i < hosts; ++i) {
    Host h;
    h.name = "host-" + std::to_string(i);
    h.ip = "10.1.0." + std::to_string(i);
    h.tn = 2;
    Metric load;
    load.name = "load_one";
    load.set_double(0.5 * (i + 1));
    h.metrics.push_back(load);
    c.hosts.emplace(h.name, std::move(h));
  }
  report.clusters.push_back(std::move(c));
  return report;
}

/// A store shaped like an N-level gmetad's: a gmond cluster, a summary-form
/// child grid, and a full-detail child grid (as a 1-level child sends).
class RenderPipelineTest : public ::testing::Test {
 protected:
  RenderPipelineTest() : engine_(store_) {
    store_.publish(std::make_shared<SourceSnapshot>(
        "meteor", cluster_report("meteor", 4), 500));

    Report attic;
    Grid summarised;
    summarised.name = "attic";
    summarised.authority = "gmetad://attic:8651/";
    summarised.localtime = 500;
    summarised.summary.emplace();
    summarised.summary->hosts_up = 10;
    summarised.summary->metrics["load_one"] = {17.5, 10, MetricType::float_t,
                                               ""};
    attic.grids.push_back(std::move(summarised));
    store_.publish(
        std::make_shared<SourceSnapshot>("attic", std::move(attic), 500));

    Report child;
    Grid verbose;
    verbose.name = "verbose-child";
    verbose.authority = "gmetad://child:1/";
    verbose.localtime = 500;
    Report inner = cluster_report("inner", 2);
    verbose.clusters.push_back(std::move(inner.clusters.front()));
    child.grids.push_back(std::move(verbose));
    store_.publish(std::make_shared<SourceSnapshot>("verbose-child",
                                                    std::move(child), 500));

    ctx_.grid_name = "sdsc";
    ctx_.authority = "gmetad://sdsc:8651/";
    ctx_.now = 510;
  }

  std::string render(std::string_view line, render::Format format,
                     bool fragments) {
    engine_.set_use_fragments(fragments);
    auto rendered = engine_.execute_rendered(line, ctx_, format);
    EXPECT_TRUE(rendered.ok()) << rendered.error().to_string();
    return rendered.ok() ? rendered->body : std::string();
  }

  Store store_;
  QueryEngine engine_;
  QueryContext ctx_;
};

TEST_F(RenderPipelineTest, SpliceMatchesWalkByteForByte) {
  for (const Mode mode : {Mode::n_level, Mode::one_level}) {
    ctx_.mode = mode;
    for (const render::Format format :
         {render::Format::xml, render::Format::json}) {
      const std::string walked = render("/", format, /*fragments=*/false);
      const std::string spliced = render("/", format, /*fragments=*/true);
      ASSERT_FALSE(walked.empty());
      EXPECT_EQ(walked, spliced)
          << "fragment splice must be byte-identical (mode="
          << (mode == Mode::n_level ? "n_level" : "one_level") << ", format="
          << (format == render::Format::xml ? "xml" : "json") << ")";
    }
  }
}

TEST_F(RenderPipelineTest, NeverReadSlotSplicesIdenticallyOnFirstUse) {
  // Nothing primes a slot no reader asked for: the first whole-tree read
  // builds it lazily, and that splice is the walk's bytes.
  for (const char* name : {"meteor", "attic", "verbose-child"}) {
    EXPECT_EQ(store_.get(name)->fragment_use().built, 0u) << name;
  }
  ctx_.mode = Mode::n_level;
  for (const render::Format format :
       {render::Format::xml, render::Format::json}) {
    const std::string walked = render("/", format, /*fragments=*/false);
    EXPECT_EQ(render("/", format, /*fragments=*/true), walked);
  }
  const auto use = store_.get("meteor")->fragment_use();
  EXPECT_NE(use.built, 0u);
  EXPECT_EQ(use.built, use.read) << "built exactly the slots read";
  // Served again, the bytes are the ones built the first time.
  const std::string& a =
      render::cluster_fragment(*store_.get("meteor"), render::Format::xml);
  const std::string& b =
      render::cluster_fragment(*store_.get("meteor"), render::Format::xml);
  EXPECT_EQ(&a, &b);
}

TEST_F(RenderPipelineTest, SourceReadInOneFormatIsPrimedInThatFormatOnly) {
  ctx_.mode = Mode::n_level;
  const std::string walked_xml = render("/", render::Format::xml, false);
  const std::string walked_json = render("/", render::Format::json, false);
  render("/", render::Format::xml, /*fragments=*/true);
  const auto previous = store_.get("meteor");
  const std::uint32_t xml_read = previous->fragment_use().read;
  ASSERT_NE(xml_read, 0u);

  // The poll path's successor: primed from the predecessor's reads, before
  // any reader sees it.
  auto next = std::make_shared<SourceSnapshot>(
      "meteor", cluster_report("meteor", 4), 500);
  render::prime_fragments(*next, previous.get());
  EXPECT_EQ(next->fragment_use().built, xml_read);
  EXPECT_EQ(next->fragment_use().read, 0u) << "priming is not a read";
  store_.publish(next);

  // The primed XML splices as walked; JSON was never read, so its first
  // read builds slots the priming did not.
  EXPECT_EQ(render("/", render::Format::xml, true), walked_xml);
  EXPECT_EQ(next->fragment_use().built, xml_read);
  EXPECT_EQ(render("/", render::Format::json, true), walked_json);
  const auto use = next->fragment_use();
  EXPECT_NE(use.built & ~xml_read, 0u);
  EXPECT_EQ(use.built, use.read);
}

TEST_F(RenderPipelineTest, ReadersSpliceWhileAWriterPublishesAndPrimes) {
  // Readers (the HTTP workers) set a snapshot's read mask while the writer
  // (a poll worker) reads its predecessor's mask to prime the successor.
  // Every source is republished with unchanged content, so every splice
  // must equal the walk whichever versions it caught.
  ctx_.mode = Mode::n_level;
  const std::string walked[2] = {render("/", render::Format::xml, false),
                                 render("/", render::Format::json, false)};
  engine_.set_use_fragments(true);
  std::map<std::string, Report> reports;
  for (const char* name : {"meteor", "attic", "verbose-child"}) {
    const auto snapshot = store_.get(name);
    Report report;
    report.clusters = snapshot->clusters();
    report.grids = snapshot->grids();
    reports.emplace(name, std::move(report));
  }

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> primed{0};
  std::thread writer([&] {
    for (int round = 0; round < 150; ++round) {
      // Let the readers in between publishes, however fast this loop runs.
      while (reads.load() <= round) std::this_thread::yield();
      for (const auto& [name, report] : reports) {
        const auto previous = store_.get(name);
        auto next = std::make_shared<SourceSnapshot>(name, report, 500);
        render::prime_fragments(*next, previous.get());
        const std::uint32_t built = next->fragment_use().built;
        // Built before publish, so only from reads the predecessor saw.
        if ((built & ~previous->fragment_use().read) != 0) ++mismatches;
        if (built != 0) ++primed;
        store_.publish(std::move(next));
      }
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      int i = r;
      do {
        const auto format = (i++ % 2 == 0) ? render::Format::xml
                                           : render::Format::json;
        auto rendered = engine_.execute_rendered("/", ctx_, format);
        if (!rendered.ok() ||
            rendered->body != walked[format == render::Format::xml ? 0 : 1]) {
          ++mismatches;
        }
        ++reads;
      } while (!done.load());
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(primed.load(), 0) << "readers' slots were primed ahead";
}

TEST_F(RenderPipelineTest, JsonDocumentShapeSurvivesSplicing) {
  ctx_.mode = Mode::n_level;
  const std::string spliced = render("/", render::Format::json, true);
  EXPECT_EQ(spliced.front(), '{');
  EXPECT_EQ(spliced.back(), '\n');
  EXPECT_NE(spliced.find("\"clusters\":["), std::string::npos);
  EXPECT_NE(spliced.find("\"grids\":["), std::string::npos);
  EXPECT_NE(spliced.find("\"meteor\""), std::string::npos);
  EXPECT_NE(spliced.find("\"attic\""), std::string::npos);
}

TEST(ReadDrivenPriming, Fig2DeltaTreePrimesOnlyWhatTheRootReads) {
  // The dashboard's shape: a fig-2 tree on delta federation whose whole
  // tree is read only at the root, in both formats.  Children serve their
  // parents through the delta publisher, which reads no fragment.
  TestbedSpec spec = fig2_spec(3, Mode::n_level);
  spec.federation = true;
  spec.soft_state = true;
  Testbed bed(std::move(spec));
  Gmetad& root = bed.node("root");
  const auto read_root = [&root] {
    EXPECT_TRUE(root.query_rendered("/", render::Format::json).ok());
    EXPECT_FALSE(root.dump_xml().empty());
  };
  for (int warm_up = 0; warm_up < 2; ++warm_up) {
    bed.run_round();
    read_root();
  }
  for (int round = 0; round < 3; ++round) {
    std::map<std::string, std::shared_ptr<const SourceSnapshot>> read;
    for (const auto& snapshot : root.store().all()) {
      read.emplace(snapshot->name(), snapshot);
    }
    bed.run_round();

    // Each new root snapshot holds exactly the slots its predecessor's
    // readers asked for, built before any reader touched it.
    const auto published = root.store().all();
    ASSERT_EQ(published.size(), read.size());
    for (const auto& snapshot : published) {
      const auto& previous = read.at(snapshot->name());
      ASSERT_NE(previous, snapshot) << "republished every round";
      const std::uint32_t asked = previous->fragment_use().read;
      EXPECT_NE(asked, 0u) << snapshot->name();
      EXPECT_EQ(snapshot->fragment_use().built, asked) << snapshot->name();
      EXPECT_EQ(snapshot->fragment_use().read, 0u) << snapshot->name();
    }
    // No child snapshot holds fragment bytes.
    for (const std::string& node : bed.poll_order()) {
      if (node == "root") continue;
      for (const auto& snapshot : bed.node(node).store().all()) {
        EXPECT_EQ(snapshot->fragment_use().built, 0u)
            << node << " source " << snapshot->name();
      }
    }
    read_root();
  }
}

TEST(ReadDrivenPriming, UnreachableSourceStaysPrimedForItsReaders) {
  // A source the root reads goes dark: each stale copy that keeps serving
  // its last-known data is primed from its predecessor's reads, like a
  // fresh snapshot.  1-level, whose stale copies defer their summary just
  // as its fresh snapshots do.
  Testbed bed(fig2_spec(3, Mode::one_level));
  Gmetad& root = bed.node("root");
  const auto read_root = [&root] {
    EXPECT_TRUE(root.query_rendered("/", render::Format::json).ok());
    EXPECT_FALSE(root.dump_xml().empty());
  };
  bed.run_round();
  read_root();
  net::FailurePolicy refuse;
  refuse.kind = net::FailurePolicy::Kind::refuse;
  bed.transport().set_failure(Testbed::dump_address("ucsd"), refuse);
  for (int round = 0; round < 2; ++round) {
    const auto previous = root.store().get("ucsd");
    bed.run_round();
    const auto stale = root.store().get("ucsd");
    ASSERT_FALSE(stale->reachable());
    EXPECT_GT(stale->host_count(), 0u);
    EXPECT_EQ(stale->host_count(), previous->host_count());
    EXPECT_NE(previous->fragment_use().read, 0u);
    EXPECT_EQ(stale->fragment_use().built, previous->fragment_use().read);
    read_root();
  }
}

TEST(ReadDrivenPriming, RefusedRoundsShareTheLastReportAndItsFragments) {
  // While a source stays dark, each stale copy holds the last report it
  // delivered and the fragment bytes its readers asked for: nothing is
  // copied, indexed, summarised or serialised again, in either mode.
  for (const Mode mode : {Mode::one_level, Mode::n_level}) {
    SCOPED_TRACE(mode == Mode::n_level ? "n-level" : "1-level");
    Testbed bed(fig2_spec(3, mode));
    Gmetad& root = bed.node("root");
    const auto read_root = [&root] {
      EXPECT_TRUE(root.query_rendered("/", render::Format::json).ok());
      EXPECT_FALSE(root.dump_xml().empty());
    };
    bed.run_round();
    read_root();
    const auto delivered = root.store().get("ucsd");
    ASSERT_TRUE(delivered->reachable());
    const std::uint32_t built = delivered->fragment_use().built;
    ASSERT_NE(built, 0u);
    const std::string* xml = &render::cluster_fragment(
        *delivered, render::Format::xml);
    const std::string* grids = &render::grid_fragment(
        *delivered, render::Format::json, mode);

    net::FailurePolicy refuse;
    refuse.kind = net::FailurePolicy::Kind::refuse;
    bed.transport().set_failure(Testbed::dump_address("ucsd"), refuse);
    auto previous = delivered;
    for (int round = 0; round < 3; ++round) {
      bed.run_round();
      const auto stale = root.store().get("ucsd");
      ASSERT_NE(stale, previous) << "a stale copy is published every round";
      ASSERT_FALSE(stale->reachable());
      EXPECT_EQ(stale->fetched_at(), delivered->fetched_at());
      EXPECT_EQ(stale->clusters().data(), delivered->clusters().data());
      EXPECT_EQ(stale->grids().data(), delivered->grids().data());
      EXPECT_EQ(&stale->summary(), &delivered->summary());
      EXPECT_EQ(stale->fragment_use().built, built) << "no slot built anew";
      EXPECT_EQ(stale->fragment_use().read, 0u) << "reads are per snapshot";
      EXPECT_EQ(&render::cluster_fragment(*stale, render::Format::xml), xml);
      EXPECT_EQ(&render::grid_fragment(*stale, render::Format::json, mode),
                grids);
      read_root();
      previous = stale;
    }
  }
}

// -------------------------------------------------------- store versioning

TEST(StoreVersions, PublishAssignsUniqueMonotonicVersions) {
  Store store;
  std::set<std::uint64_t> seen;
  for (const char* name : {"a", "b", "c"}) {
    store.publish(
        std::make_shared<SourceSnapshot>(name, cluster_report(name, 1), 1));
    const std::uint64_t v = store.source_version(name);
    EXPECT_GT(v, 0u) << "real versions start at 1";
    EXPECT_TRUE(seen.insert(v).second) << "versions are unique across sources";
  }
  const std::uint64_t before = store.source_version("b");
  store.publish(
      std::make_shared<SourceSnapshot>("b", cluster_report("b", 2), 2));
  EXPECT_GT(store.source_version("b"), before);
  EXPECT_EQ(store.source_version("missing"), 0u);
}

TEST(StoreVersions, StructureVersionBumpsOnlyOnMembershipChange) {
  Store store;
  const std::uint64_t v0 = store.structure_version();
  store.publish(
      std::make_shared<SourceSnapshot>("a", cluster_report("a", 1), 1));
  const std::uint64_t v1 = store.structure_version();
  EXPECT_NE(v1, v0) << "a new source changes the set";

  store.publish(
      std::make_shared<SourceSnapshot>("a", cluster_report("a", 3), 2));
  EXPECT_EQ(store.structure_version(), v1)
      << "republishing an existing source must not bump the structure";

  store.remove("a");
  EXPECT_NE(store.structure_version(), v1) << "removal changes the set";
  store.remove("a");  // removing a missing source is a no-op
  const std::uint64_t v2 = store.structure_version();
  store.remove("a");
  EXPECT_EQ(store.structure_version(), v2);
}

TEST(StoreVersions, AllVersionedIsConsistentWithSourceVersion) {
  Store store;
  store.publish(
      std::make_shared<SourceSnapshot>("a", cluster_report("a", 1), 1));
  store.publish(
      std::make_shared<SourceSnapshot>("b", cluster_report("b", 1), 1));
  std::uint64_t structure = 0;
  const auto all = store.all_versioned(&structure);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(structure, store.structure_version());
  for (const auto& vs : all) {
    EXPECT_EQ(vs.version, store.source_version(vs.snapshot->name()));
  }
}

// ------------------------------------------------------------------- deps

TEST(RenderDeps, CurrentTracksSourceAndStructureVersions) {
  Store store;
  store.publish(
      std::make_shared<SourceSnapshot>("a", cluster_report("a", 1), 1));
  store.publish(
      std::make_shared<SourceSnapshot>("b", cluster_report("b", 1), 1));

  render::Deps a_only;
  a_only.sources.push_back({"a", store.source_version("a")});
  render::Deps whole;
  whole.structure = true;
  whole.structure_version = store.structure_version();
  whole.sources.push_back({"a", store.source_version("a")});
  whole.sources.push_back({"b", store.source_version("b")});

  EXPECT_TRUE(a_only.current(store));
  EXPECT_TRUE(whole.current(store));

  store.publish(
      std::make_shared<SourceSnapshot>("b", cluster_report("b", 2), 2));
  EXPECT_TRUE(a_only.current(store)) << "b's publish must not touch a's deps";
  EXPECT_FALSE(whole.current(store));

  store.publish(
      std::make_shared<SourceSnapshot>("a", cluster_report("a", 2), 2));
  EXPECT_FALSE(a_only.current(store));
}

TEST(RenderDeps, FingerprintDistinguishesVersionsAndNames) {
  render::Deps a;
  a.sources.push_back({"alpha", 3});
  render::Deps b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  b.sources[0].version = 4;
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  render::Deps ab;
  ab.sources.push_back({"ab", 1});
  ab.sources.push_back({"c", 2});
  render::Deps a_bc;
  a_bc.sources.push_back({"a", 1});
  a_bc.sources.push_back({"bc", 2});
  EXPECT_NE(ab.fingerprint(), a_bc.fingerprint())
      << "name boundaries must be part of the hash";

  render::Deps structural = a;
  structural.structure = true;
  structural.structure_version = 0;
  EXPECT_NE(a.fingerprint(), structural.fingerprint());
}

TEST_F(RenderPipelineTest, RenderedQueryReportsItsDependencySet) {
  engine_.set_use_fragments(true);
  auto whole = engine_.execute_rendered("/", ctx_, render::Format::xml);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->deps.structure);
  EXPECT_EQ(whole->deps.sources.size(), 3u) << "whole tree reads every source";

  auto narrow = engine_.execute_rendered("/meteor", ctx_, render::Format::xml);
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(narrow->deps.structure);
  ASSERT_EQ(narrow->deps.sources.size(), 1u)
      << "a literal first segment depends on one source";
  EXPECT_EQ(narrow->deps.sources[0].name, "meteor");
  EXPECT_TRUE(narrow->deps.current(store_));

  store_.publish(std::make_shared<SourceSnapshot>(
      "attic", cluster_report("attic", 1), 501));
  EXPECT_TRUE(narrow->deps.current(store_))
      << "an attic publish leaves meteor's deps current";
  EXPECT_FALSE(whole->deps.current(store_));
}

}  // namespace
}  // namespace ganglia::gmetad
