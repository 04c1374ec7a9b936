// Robustness ("never crash") property tests: random and mutated inputs
// thrown at every parser in the system — the SAX parser, the report
// builder, the wire codec, the config parser, the query grammar, and the
// RRD codec.  A wide-area monitor ingests bytes from remote machines it
// does not control; parsers must fail cleanly, never crash or hang.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fed/apply.hpp"
#include "fed/codec.hpp"
#include "fed/diff.hpp"
#include "fed/publisher.hpp"
#include "fed/session.hpp"
#include "gmetad/config.hpp"
#include "gmetad/query.hpp"
#include "gmon/wire.hpp"
#include "gossip/agent.hpp"
#include "gossip/delta.hpp"
#include "gossip_sim_util.hpp"
#include "net/framing.hpp"
#include "net/inmem.hpp"
#include "sim/sim_clock.hpp"
#include "query/grammar.hpp"
#include "rrd/rrd_file.hpp"
#include "xml/sax.hpp"

namespace ganglia {
namespace {

std::string random_bytes(Rng& rng, std::size_t max_len) {
  std::string out;
  const std::size_t len = rng.next_below(static_cast<std::uint32_t>(max_len));
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.next_below(256));
  }
  return out;
}

/// Bytes biased towards XML-ish structure so parsing gets past the first
/// character more often.
std::string random_xmlish(Rng& rng, std::size_t max_len) {
  static constexpr std::string_view alphabet =
      "<>/=\"'&;ab GRID NAME METRIC HOSTS #x01?!-[]";
  std::string out;
  const std::size_t len = rng.next_below(static_cast<std::uint32_t>(max_len));
  for (std::size_t i = 0; i < len; ++i) {
    out += alphabet[rng.next_below(static_cast<std::uint32_t>(alphabet.size()))];
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1};
};

TEST_P(FuzzSeeds, SaxParserNeverCrashes) {
  xml::SaxParser parser;
  struct Null : xml::SaxHandler {
  } handler;
  for (int i = 0; i < 200; ++i) {
    (void)parser.parse(random_bytes(rng_, 300), handler);
    (void)parser.parse(random_xmlish(rng_, 300), handler);
  }
}

TEST_P(FuzzSeeds, ReportParserNeverCrashes) {
  for (int i = 0; i < 100; ++i) {
    (void)parse_report(random_xmlish(rng_, 400));
    // Valid XML wrapper with fuzzed inside.
    (void)parse_report("<GANGLIA_XML VERSION=\"1\" SOURCE=\"x\">" +
                       random_xmlish(rng_, 200) + "</GANGLIA_XML>");
  }
}

TEST_P(FuzzSeeds, MutatedValidReportsFailCleanly) {
  // Take a valid document and flip/delete bytes; the parser must either
  // succeed or return parse_error — never crash.
  Report report;
  Cluster c;
  c.name = "m";
  Host h;
  h.name = "h";
  Metric metric;
  metric.name = "x";
  metric.set_double(1.5);
  h.metrics.push_back(metric);
  c.hosts.emplace("h", std::move(h));
  report.clusters.push_back(std::move(c));
  const std::string valid = write_report(report);

  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    const auto pos = rng_.next_below(static_cast<std::uint32_t>(mutated.size()));
    switch (rng_.next_below(3)) {
      case 0: mutated[pos] = static_cast<char>(rng_.next_below(256)); break;
      case 1: mutated.erase(pos, 1 + rng_.next_below(5)); break;
      case 2: mutated.insert(pos, 1, static_cast<char>(rng_.next_below(256))); break;
    }
    (void)parse_report(mutated);
  }
}

TEST_P(FuzzSeeds, WireDecoderNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    (void)gmon::decode(random_bytes(rng_, 200));
  }
  // Mutated valid datagrams.
  gmon::MetricMessage msg;
  msg.host_name = "n";
  msg.host_ip = "1.2.3.4";
  msg.metric.name = "load_one";
  msg.metric.set_double(1.0);
  const std::string valid = gmon::encode(msg);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    mutated[rng_.next_below(static_cast<std::uint32_t>(mutated.size()))] =
        static_cast<char>(rng_.next_below(256));
    (void)gmon::decode(mutated);
  }
}

TEST_P(FuzzSeeds, ConfigParserNeverCrashes) {
  static constexpr std::string_view alphabet =
      "abcdefgh \"\n#:0123456789 data_source gridname mode xml_port";
  for (int i = 0; i < 200; ++i) {
    std::string text;
    const std::size_t len = rng_.next_below(200);
    for (std::size_t j = 0; j < len; ++j) {
      text += alphabet[rng_.next_below(static_cast<std::uint32_t>(alphabet.size()))];
    }
    (void)gmetad::parse_config(text);
  }
}

TEST_P(FuzzSeeds, QueryParserNeverCrashes) {
  static constexpr std::string_view alphabet = "/?~=abc.*[]()|\\{}+-";
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const std::size_t len = rng_.next_below(60);
    for (std::size_t j = 0; j < len; ++j) {
      text += alphabet[rng_.next_below(static_cast<std::uint32_t>(alphabet.size()))];
    }
    (void)gmetad::parse_query(text);
  }
}

TEST_P(FuzzSeeds, QueryPlanGrammarNeverCrashes) {
  // The /api/v1/query grammar fronts the network: random plan-ish text,
  // raw bytes, and mutated valid plans must parse or fail with a clean
  // 400 — never crash, never return a plan without a clear verdict.
  static constexpr std::string_view alphabet =
      "&=~<>!,.:*[]()0123456789abcdef metric=from=/where=top=agg=group="
      "order=dir=limit=range=last=cf=up=host=";
  for (int i = 0; i < 300; ++i) {
    std::string text;
    const std::size_t len = rng_.next_below(200);
    for (std::size_t j = 0; j < len; ++j) {
      text += alphabet[rng_.next_below(static_cast<std::uint32_t>(alphabet.size()))];
    }
    auto plan = query::parse_plan(text, 1000);
    if (!plan.ok()) {
      EXPECT_EQ(plan.error().status, 400);
    }
    (void)query::parse_plan(random_bytes(rng_, 200), 1000);
  }
  // Mutated valid plans.
  const std::string valid =
      "metric=load_one&from=/sdsc/~^met.*&where=cpu_num>=2,load_one<4"
      "&up=1&group=cluster&agg=max&top=5&host=~compute-.*";
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    const auto pos =
        rng_.next_below(static_cast<std::uint32_t>(mutated.size()));
    switch (rng_.next_below(3)) {
      case 0: mutated[pos] = static_cast<char>(rng_.next_below(256)); break;
      case 1: mutated.resize(pos); break;
      case 2: mutated.insert(pos, 1,
                             static_cast<char>(rng_.next_below(256))); break;
    }
    auto plan = query::parse_plan(mutated, 1000);
    if (!plan.ok()) {
      EXPECT_EQ(plan.error().status, 400);
    }
  }
}

TEST_P(FuzzSeeds, RrdCodecNeverCrashes) {
  for (int i = 0; i < 100; ++i) {
    (void)rrd::RrdCodec::deserialize(random_bytes(rng_, 500));
  }
  // Mutated valid images must be rejected or parse to a valid db.
  auto db = rrd::RoundRobinDb::create(rrd::RrdDef::ganglia_default(), 0);
  ASSERT_TRUE(db.ok());
  (void)db->update(15, 1.0);
  const std::string image = rrd::RrdCodec::serialize(*db);
  for (int i = 0; i < 100; ++i) {
    std::string mutated = image;
    mutated[rng_.next_below(static_cast<std::uint32_t>(mutated.size()))] =
        static_cast<char>(rng_.next_below(256));
    auto restored = rrd::RrdCodec::deserialize(mutated);
    if (restored.ok()) {
      // If accepted, the database must still behave (no poisoned state).
      (void)restored->fetch(rrd::ConsolidationFn::average, 0, 1000);
    }
  }
}

TEST_P(FuzzSeeds, DeltaFrameParserNeverCrashes) {
  net::Frame frame;
  std::size_t consumed = 0;
  for (int i = 0; i < 300; ++i) {
    (void)net::parse_frame(random_bytes(rng_, 300), fed::kMaxFrameBytes,
                           frame, consumed);
  }
  // Mutated valid frames: ok, need_more, or error — never a crash or an
  // oversized allocation.
  std::string valid;
  net::put_frame(valid, fed::kFrameRows, std::string(64, 'r'));
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    mutated[rng_.next_below(static_cast<std::uint32_t>(mutated.size()))] =
        static_cast<char>(rng_.next_below(256));
    (void)net::parse_frame(mutated, fed::kMaxFrameBytes, frame, consumed);
  }
}

TEST_P(FuzzSeeds, DeltaRequestDecoderNeverCrashes) {
  for (int i = 0; i < 300; ++i) {
    (void)fed::decode_request(fed::kFramePoll, random_bytes(rng_, 200));
    (void)fed::decode_request(fed::kFramePing, random_bytes(rng_, 200));
  }
  // Mutated valid poll requests, one per view.
  for (const fed::View view : {fed::View::tree, fed::View::summary}) {
    fed::PollRequest req;
    req.session_id = "fuzzed-session-0123456789abcdef";
    req.last_version = 1234;
    req.view = view;
    const std::string encoded = fed::encode_poll(req);
    net::Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(net::parse_frame(encoded, fed::kMaxFrameBytes, frame, consumed),
              net::FrameParse::ok);
    const std::string payload(frame.payload);
    ASSERT_TRUE(fed::decode_request(fed::kFramePoll, payload).ok());
    for (int i = 0; i < 300; ++i) {
      std::string mutated = payload;
      mutated[rng_.next_below(static_cast<std::uint32_t>(mutated.size()))] =
          static_cast<char>(rng_.next_below(256));
      (void)fed::decode_request(fed::kFramePoll, mutated);
    }
  }
}

/// A small report and a valid row stream transforming it, for mutation,
/// plus `prefix`, valid rows selecting host h0, and `hostile` streams that
/// extend it with rows every applier must refuse.
struct DeltaCorpus {
  Report base;
  std::string rows;
  std::string prefix;
  std::vector<std::string> hostile;

  DeltaCorpus() {
    Cluster c;
    c.name = "fuzz";
    c.localtime = 100;
    for (int h = 0; h < 3; ++h) {
      Host host;
      host.name = "h" + std::to_string(h);
      host.ip = "10.0.0.1";
      for (int m = 0; m < 4; ++m) {
        Metric metric;
        metric.name = "m" + std::to_string(m);
        metric.set_double(h + m * 0.5);
        host.metrics.push_back(std::move(metric));
      }
      c.hosts.emplace(host.name, std::move(host));
    }
    base.source = "gmond";
    base.clusters.push_back(std::move(c));

    Report next = base;
    next.clusters[0].localtime = 115;
    next.clusters[0].hosts.at("h1").metrics[2].set_double(99.0);
    next.clusters[0].hosts.at("h2").tn = 30;
    // Every host attribute mask bit at once, VALs packed and as text, and
    // a joining host diffed against the default host.
    Host& h0 = next.clusters[0].hosts.at("h0");
    h0.ip = "10.0.0.2";
    h0.reported = 1'062'000'115;
    h0.tn = 3;
    h0.tmax = 30;
    h0.dmax = 600;
    h0.location = "0,1,2";
    h0.gmond_started = 1'061'913'715;
    h0.metrics[0].set_double(-0.05);
    h0.metrics[1].value = "1e5";
    h0.metrics[2].set_string("x86_64");
    Host joiner = h0;
    joiner.name = "h3";
    next.clusters[0].hosts.emplace(joiner.name, std::move(joiner));
    fed::NameDict dict;
    fed::RowBuffer buffer;
    EXPECT_TRUE(fed::diff_report(base, next, dict, buffer));
    rows = buffer.bytes;

    net::put_u8(prefix, fed::kRowCluster);
    net::put_string(prefix, "fuzz");
    define(prefix, 0, "h0");
    net::put_u8(prefix, fed::kRowHost);
    net::put_varint(prefix, 0);
    define(prefix, 1, "m0");

    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    for (const std::uint8_t mask : {std::uint8_t{0}, std::uint8_t{0x80},
                                    std::uint8_t{0xff}}) {
      std::string bits = prefix;  // empty or unknown mask bits
      net::put_u8(bits, fed::kRowHostAttrs);
      net::put_u8(bits, mask);
      net::put_string(bits, "10.0.0.3");
      for (int field = 0; field < 4; ++field) net::put_varint(bits, 1);
      net::put_string(bits, "0,0,0");
      net::put_varint(bits, 1);
      hostile.push_back(std::move(bits));
    }
    for (const auto& [bit, first, second] :
         {std::tuple{fed::kHostReported, kMax, std::int64_t{1}},
          std::tuple{fed::kHostStarted, -kMax - 1, std::int64_t{-1}}}) {
      std::string overflow = prefix;  // int64 overflow on the second row
      for (const std::int64_t delta : {first, second}) {
        net::put_u8(overflow, fed::kRowHostAttrs);
        net::put_u8(overflow, bit);
        net::put_varint(overflow, fed::zigzag(delta));
      }
      hostile.push_back(std::move(overflow));
    }
    for (const auto& [head, digits] :
         {std::pair<std::uint8_t, std::uint64_t>{19 << 1, 5},     // scale
          std::pair<std::uint8_t, std::uint64_t>{0x80, 5},        // scale
          std::pair<std::uint8_t, std::uint64_t>{0, ~0ull},       // digits
          std::pair<std::uint8_t, std::uint64_t>{
              1, 10'000'000'000'000'000'000ull}}) {               // digits
      std::string value = prefix;
      net::put_u8(value, fed::kRowMetricValue);
      net::put_varint(value, 1);
      net::put_u8(value, head);
      net::put_varint(value, digits);
      net::put_varint(value, 0);
      hostile.push_back(std::move(value));
    }
    for (const std::uint8_t tag : {fed::kRowHost, fed::kRowHostRemove}) {
      std::string past = prefix;  // host id past the dictionary
      net::put_u8(past, tag);
      net::put_varint(past, 2);
      hostile.push_back(std::move(past));
    }
    std::string sum = prefix;  // a sum for a metric the summary lacks
    net::put_u8(sum, fed::kRowSummarySum);
    net::put_varint(sum, 1);
    net::put_f64(sum, 2.5);
    hostile.push_back(std::move(sum));
  }

  static void define(std::string& out, std::uint64_t id,
                     std::string_view name) {
    net::put_u8(out, fed::kRowDefineName);
    net::put_varint(out, id);
    net::put_string(out, name);
  }
};

TEST_P(FuzzSeeds, DeltaApplierNeverCrashes) {
  const DeltaCorpus corpus;
  {
    Report doc = corpus.base;
    std::vector<std::string> names;
    ASSERT_TRUE(fed::apply_rows(doc, corpus.rows, names, nullptr).ok());
    Report again = corpus.base;
    names.clear();
    ASSERT_TRUE(fed::apply_rows(again, corpus.prefix, names, nullptr).ok());
  }
  for (const std::string& stream : corpus.hostile) {
    Report doc = corpus.base;
    std::vector<std::string> names;
    EXPECT_FALSE(fed::apply_rows(doc, stream, names, nullptr).ok());
  }
  for (int i = 0; i < 200; ++i) {
    Report doc = corpus.base;
    std::vector<std::string> names;
    (void)fed::apply_rows(doc, random_bytes(rng_, 300), names, nullptr);
  }
  // Mutated valid and hostile row streams: accepted or parse_error, never
  // a crash — and truncations at every boundary.
  const auto mutate_and_apply = [this, &corpus](std::string mutated) {
    const auto pos =
        rng_.next_below(static_cast<std::uint32_t>(mutated.size()));
    switch (rng_.next_below(3)) {
      case 0: mutated[pos] = static_cast<char>(rng_.next_below(256)); break;
      case 1: mutated.resize(pos); break;
      case 2: mutated.insert(pos, 1,
                             static_cast<char>(rng_.next_below(256))); break;
    }
    Report doc = corpus.base;
    std::vector<std::string> names;
    (void)fed::apply_rows(doc, mutated, names, nullptr);
  };
  for (int i = 0; i < 300; ++i) mutate_and_apply(corpus.rows);
  for (const std::string& stream : corpus.hostile) {
    for (int i = 0; i < 20; ++i) mutate_and_apply(stream);
  }
}

TEST_P(FuzzSeeds, PublisherServeNeverCrashes) {
  const DeltaCorpus corpus;
  auto doc = std::make_shared<const Report>(corpus.base);
  fed::Publisher publisher([&doc](fed::View) { return fed::Doc{doc, 1}; });
  for (int i = 0; i < 200; ++i) {
    const std::string response = publisher.serve(random_bytes(rng_, 200));
    EXPECT_FALSE(response.empty()) << "garbage in, error frame out";
  }
  // Mutated valid requests in both views.
  for (const fed::View view : {fed::View::tree, fed::View::summary}) {
    fed::PollRequest req;
    req.session_id = "fuzz";
    req.view = view;
    const std::string valid = fed::encode_poll(req);
    for (int i = 0; i < 200; ++i) {
      std::string mutated = valid;
      mutated[rng_.next_below(static_cast<std::uint32_t>(mutated.size()))] =
          static_cast<char>(rng_.next_below(256));
      (void)publisher.serve(mutated);
    }
  }
}

TEST_P(FuzzSeeds, CorruptedDeltaStreamResyncsCleanly) {
  // A session polling through a proxy that corrupts one byte of the
  // response mid-stream: the poll must fail cleanly (never crash, never
  // accept a torn document), and the next clean poll resyncs from full
  // XML to the exact current report.
  net::InMemTransport transport;
  auto current = std::make_shared<const Report>(DeltaCorpus().base);
  std::uint64_t version = 1;
  fed::Publisher publisher(
      [&](fed::View) { return fed::Doc{current, version}; });

  bool corrupt = false;
  transport.register_service(
      "pub:1", [&](std::string_view request) -> Result<std::string> {
        std::string response = publisher.serve(request);
        if (corrupt && !response.empty()) {
          response[response.size() / 2] = static_cast<char>(
              response[response.size() / 2] ^
              static_cast<char>(1 + rng_.next_below(255)));
        }
        return response;
      });

  fed::SessionOptions opts;
  opts.address = "pub:1";
  fed::Session session(opts);
  constexpr TimeUs kTimeout = 5 * kMicrosPerSecond;
  ASSERT_TRUE(session.poll(transport, kTimeout).ok());

  for (int i = 0; i < 20; ++i) {
    // Change the document, deliver the (delta) response corrupted.
    Report next = *current;
    next.clusters[0].localtime += 15;
    next.clusters[0].hosts.at("h0").metrics[0].set_double(i * 2.0);
    current = std::make_shared<const Report>(std::move(next));
    ++version;

    corrupt = true;
    const auto torn = session.poll(transport, kTimeout);
    if (torn.ok()) {
      // Some flips are semantically invisible (framing slack) and some
      // land inside a value string, which no layer here checksums — the
      // wire relies on TCP for integrity.  Model an upper-layer integrity
      // check: discard a divergent document and force a resync.
      if (write_report(torn->report) != write_report(*current)) {
        session.invalidate();
      }
    } else {
      EXPECT_FALSE(session.has_base()) << "failed poll must drop the base";
    }

    corrupt = false;
    const auto clean = session.poll(transport, kTimeout);
    ASSERT_TRUE(clean.ok()) << clean.error().to_string();
    ASSERT_EQ(write_report(clean->report), write_report(*current));
    if (!torn.ok()) {
      EXPECT_FALSE(clean->delta) << "after corruption the session must "
                                    "resync from a full transfer";
    }
  }
}

/// Well-formed membership messages for mutation: a ping carrying news, a
/// ping-req, and a sync request with its page of id hashes.
std::vector<std::string> make_message_corpus() {
  const auto member = [](std::uint32_t n, gossip::MemberState state) {
    gossip::MemberEntry row;
    row.id = "gm" + std::to_string(n);
    row.address = row.id + ":8654";
    row.meta = {{"source", row.id}, {"fed", row.id + ":8655"}};
    row.incarnation = 1'062'000'000'000'000ULL + n;
    row.state = state;
    return row;
  };
  gossip::Message ping;
  ping.digest = 0x5eed;
  ping.sender = member(0, gossip::MemberState::alive);
  // Every state that travels (DEAD never does).
  ping.rows = {member(1, gossip::MemberState::suspect),
               member(2, gossip::MemberState::alive),
               member(3, gossip::MemberState::left)};
  gossip::Message ping_req = ping;
  ping_req.kind = gossip::MessageKind::ping_req;
  ping_req.target_id = "gm9";
  ping_req.target_address = "gm9:8654";
  gossip::Message sync;
  sync.kind = gossip::MessageKind::sync;
  sync.sender = ping.sender;
  sync.page_from = "gm1";
  sync.page_to = "gm7";
  for (std::uint32_t n = 2; n < 8; ++n) {
    sync.have.push_back(gossip::row_hash(member(n, gossip::MemberState::alive)));
  }
  return {gossip::encode_message(ping), gossip::encode_message(ping_req),
          gossip::encode_message(sync)};
}

std::string mutate(Rng& rng, std::string bytes) {
  const auto pos = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
  switch (rng.next_below(3)) {
    case 0: bytes[pos] = static_cast<char>(rng.next_below(256)); break;
    case 1: bytes.resize(pos); break;
    case 2: bytes.insert(pos, 1, static_cast<char>(rng.next_below(256))); break;
  }
  return bytes;
}

TEST_P(FuzzSeeds, GossipDigestDecoderNeverCrashes) {
  // Raw bytes, then valid messages of every kind mutated every way —
  // flips, truncations at every boundary, insertions.  decode must accept
  // or fail cleanly.
  for (int i = 0; i < 300; ++i) {
    (void)gossip::decode_message(random_bytes(rng_, 300));
    (void)gossip::collect_digest_frames(random_bytes(rng_, 300), 1u << 20);
  }
  for (const std::string& valid : make_message_corpus()) {
    ASSERT_TRUE(gossip::decode_message(valid).ok());
    for (int i = 0; i < 150; ++i) {
      (void)gossip::decode_message(mutate(rng_, valid));
    }
    // The framed form, chunked small so mutations tear chunk sequences too.
    std::string framed;
    gossip::put_digest_frames(framed, valid, 32);
    for (int i = 0; i < 150; ++i) {
      auto payload =
          gossip::collect_digest_frames(mutate(rng_, framed), 1u << 20);
      if (payload.ok()) (void)gossip::decode_message(*payload);
    }
  }
}

TEST_P(FuzzSeeds, GossipAgentAnswersPoisonDigestsWithResync) {
  // Poison a structurally valid message can carry.  First, a forged doubt
  // about a live member, a SUSPECT row at its incarnation or at the
  // highest a doubt may carry: precedence accepts it, so the lie spreads —
  // and its subject refutes it with a fresh incarnation, so nobody stays
  // convicted.  A DEAD row, or a doubt that leaves no room to refute it,
  // is refused whole: no message convicts anyone.
  gossip::GossipSimOptions sim_options;
  sim_options.members = 5;
  gossip::GossipSim sim(sim_options);
  ASSERT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0);
  const std::size_t victim = 1 + rng_.next_below(4);
  const std::size_t receiver = (victim + 1 + rng_.next_below(4)) % 5;
  const std::string victim_id = gossip::GossipSim::name_of(victim);
  auto forged = *sim.agent(victim).member(victim_id);
  gossip::Message lie;
  lie.sender.id = "evil";
  lie.sender.address = "evil:8654";
  lie.rows.push_back(forged);
  for (const auto& [state, incarnation] :
       {std::pair{gossip::MemberState::dead, forged.incarnation},
        std::pair{gossip::MemberState::suspect, ~std::uint64_t{0}}}) {
    lie.rows[0].state = state;
    lie.rows[0].incarnation = incarnation;
    EXPECT_FALSE(sim.agent(receiver)
                     .handle_digest_payload(gossip::encode_message(lie))
                     .ok())
        << member_state_name(state) << " at " << incarnation;
    EXPECT_EQ(sim.agent(receiver).member(victim_id)->state,
              gossip::MemberState::alive);
  }
  forged.state = gossip::MemberState::suspect;
  if (rng_.next_below(2) == 0) forged.incarnation = gossip::kMaxIncarnation - 1;
  lie.rows[0] = forged;
  ASSERT_TRUE(sim.agent(receiver)
                  .handle_digest_payload(gossip::encode_message(lie))
                  .ok());
  EXPECT_EQ(sim.agent(receiver).member(forged.id)->state, forged.state)
      << "the forged row outranks the live one";
  EXPECT_GE(sim.run_until([&] { return sim.converged(); }, 20), 0)
      << "the victim must refute the forged SUSPECT at "
      << forged.incarnation;
  EXPECT_GT(sim.agent(victim).member(forged.id)->incarnation,
            forged.incarnation);

  // A standalone agent for the rest.
  sim::SimClock clock;
  net::InMemTransport fabric;
  net::BoundTransport bound(fabric, "gm0:8654");
  gossip::AgentOptions opts;
  opts.id = "gm0";
  opts.address = "gm0:8654";
  gossip::Agent agent(std::move(opts), bound, clock);

  // A message carrying our own id as its sender is refused outright.
  gossip::Message impostor;
  impostor.sender.id = "gm0";
  impostor.sender.address = "elsewhere:8654";
  EXPECT_FALSE(
      agent.handle_digest_payload(gossip::encode_message(impostor)).ok());

  // A ping-req for a target we do not hold is nacked, and nothing is
  // dialed on its say-so.
  gossip::Message relay;
  relay.kind = gossip::MessageKind::ping_req;
  relay.sender.id = "evil";
  relay.sender.address = "evil:8654";
  relay.target_id = "victim";
  relay.target_address = "victim:" + std::to_string(1 + rng_.next_below(60000));
  const auto nack = agent.handle_digest_payload(gossip::encode_message(relay));
  ASSERT_TRUE(nack.ok());
  const auto decoded = gossip::decode_message(*nack);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, gossip::MessageKind::nack);
  EXPECT_EQ(agent.stats().sends, 0u);

  // Mutated messages and raw garbage through the full service entry point.
  for (const std::string& valid : make_message_corpus()) {
    for (int i = 0; i < 70; ++i) {
      std::string framed;
      gossip::put_digest_frames(framed, mutate(rng_, valid), 64);
      (void)agent.handle_request(framed);
      (void)agent.handle_request(random_bytes(rng_, 200));
    }
  }

  // Whatever landed, the agent's own row is intact and serving continues.
  const auto self = agent.member("gm0");
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->state, gossip::MemberState::alive);
  EXPECT_EQ(self->address, "gm0:8654");
  EXPECT_TRUE(
      agent.handle_digest_payload(gossip::encode_message(relay)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 8));

}  // namespace
}  // namespace ganglia
