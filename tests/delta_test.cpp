// Delta federation protocol tests: the wire primitives (varints, frames,
// poll requests), the differ/applier pair (a delta applied to the old
// report must reproduce the new one byte-exactly or not exist at all),
// the publisher/session halves end-to-end over the in-memory fabric, and
// the full testbed proof: a tree polled over delta sessions renders the
// same dump as one polled over legacy full-XML fetches — while moving far
// fewer bytes.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "fed/apply.hpp"
#include "fed/codec.hpp"
#include "fed/diff.hpp"
#include "fed/publisher.hpp"
#include "fed/session.hpp"
#include "gmetad/testbed.hpp"
#include "net/framing.hpp"
#include "net/inmem.hpp"
#include "xml/ganglia.hpp"

namespace ganglia::fed {
namespace {

constexpr TimeUs kTimeout = 5 * kMicrosPerSecond;

// ------------------------------------------------------------- primitives

TEST(Framing, VarintRoundTrip) {
  const std::uint64_t values[] = {0,      1,          127,        128,
                                  16383,  16384,      1u << 20,   0xffffffffu,
                                  1ull << 62, ~0ull};
  for (const std::uint64_t v : values) {
    std::string buf;
    net::put_varint(buf, v);
    net::WireReader reader(buf);
    std::uint64_t back = 0;
    ASSERT_TRUE(reader.get_varint(back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(reader.done());
  }
}

TEST(Framing, TruncatedVarintFails) {
  std::string buf;
  net::put_varint(buf, 1u << 20);
  buf.pop_back();
  net::WireReader reader(buf);
  std::uint64_t v = 0;
  EXPECT_FALSE(reader.get_varint(v));
  EXPECT_TRUE(reader.failed());
}

TEST(Framing, StringCapEnforced) {
  std::string buf;
  net::put_string(buf, std::string(100, 'x'));
  net::WireReader reader(buf);
  std::string_view s;
  EXPECT_FALSE(reader.get_string(s, 50));
  net::WireReader again(buf);
  EXPECT_TRUE(again.get_string(s, 100));
  EXPECT_EQ(s.size(), 100u);
}

TEST(Framing, FrameRoundTripAndPartials) {
  std::string buf;
  net::put_frame(buf, kFrameRows, "payload-bytes");
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(buf, kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);
  EXPECT_EQ(frame.type, kFrameRows);
  EXPECT_EQ(frame.payload, "payload-bytes");
  EXPECT_EQ(consumed, buf.size());

  // Every strict prefix is need_more, never ok and never error.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(net::parse_frame(std::string_view(buf).substr(0, n),
                               kMaxFrameBytes, frame, consumed),
              net::FrameParse::need_more);
  }
}

TEST(Framing, OversizedFrameRejectedWithoutAllocation) {
  std::string buf;
  net::put_varint(buf, 1ull << 40);  // declares a terabyte-sized frame
  buf.push_back(static_cast<char>(kFrameRows));
  net::Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(net::parse_frame(buf, kMaxFrameBytes, frame, consumed),
            net::FrameParse::error);
}

// ------------------------------------------------------------ poll request

Result<PollRequest> reparse(const std::string& encoded) {
  net::Frame frame;
  std::size_t consumed = 0;
  if (net::parse_frame(encoded, kMaxFrameBytes, frame, consumed) !=
      net::FrameParse::ok) {
    return Err(Errc::parse_error, "frame");
  }
  return decode_request(frame.type, frame.payload);
}

TEST(PollRequestCodec, RoundTrip) {
  PollRequest req;
  req.session_id = "0123456789abcdef";
  req.last_version = 42;
  req.max_frame = 1u << 16;
  const auto back = reparse(encode_poll(req));
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back->op, kOpPoll);
  EXPECT_EQ(back->session_id, req.session_id);
  EXPECT_EQ(back->codec_version, kCodecVersion);
  EXPECT_EQ(back->last_version, 42u);
  EXPECT_EQ(back->max_frame, 1u << 16);

  EXPECT_EQ(back->view, View::tree);

  PollRequest summary = req;
  summary.view = View::summary;
  const auto kept = reparse(encode_poll(summary));
  ASSERT_TRUE(kept.ok()) << kept.error().to_string();
  EXPECT_EQ(kept->view, View::summary);
  EXPECT_EQ(kept->last_version, 42u);

  PollRequest ping;
  ping.op = kOpPing;
  ping.session_id = "abc";
  const auto pong = reparse(encode_poll(ping));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->op, kOpPing);
}

TEST(PollRequestCodec, PreviousVersionAndUnknownViewsAreRefused) {
  // A version-2 request, laid out as that codec wrote it: no view field.
  std::string v2;
  net::put_varint(v2, kMagic);
  net::put_varint(v2, 2);
  net::put_string(v2, "0123456789abcdef");
  net::put_varint(v2, 42);
  net::put_varint(v2, kMaxFrameBytes);
  const auto old = decode_request(kFramePoll, v2);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.error().code, Errc::unsupported);
  EXPECT_EQ(old.error().message, "codec version mismatch");

  // The publisher answers it with the error frame that sends the poller
  // to the XML dump.
  Publisher publisher(
      [](View) { return Doc{std::make_shared<const Report>(), 1}; });
  std::string request;
  net::put_frame(request, kFramePoll, v2);
  const std::string answer = publisher.serve(request);
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(answer, kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);
  EXPECT_EQ(frame.type, kFrameError);
  EXPECT_EQ(frame.payload, "codec version mismatch");

  // A view this codec does not define.
  PollRequest req;
  req.session_id = "s";
  std::string encoded = encode_poll(req);
  ASSERT_EQ(net::parse_frame(encoded, kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);
  std::string payload(frame.payload);
  ASSERT_EQ(static_cast<std::uint8_t>(payload.back()),
            static_cast<std::uint8_t>(View::tree));
  payload.back() = static_cast<char>(kViews);
  EXPECT_FALSE(decode_request(kFramePoll, payload).ok());
}

TEST(PollRequestCodec, RejectsBadMagicMismatchedVersionAndGarbage) {
  PollRequest req;
  req.session_id = "s";
  std::string encoded = encode_poll(req);
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(encoded, kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);

  // Flip one magic byte.
  std::string payload(frame.payload);
  payload[0] ^= 0x01;
  EXPECT_FALSE(decode_request(frame.type, payload).ok());

  // Future codec version: must be rejected (the data source then falls
  // back to the legacy XML dump — resync, never divergence).
  PollRequest future = req;
  future.codec_version = kCodecVersion + 1;
  const auto mismatch = reparse(encode_poll(future));
  EXPECT_FALSE(mismatch.ok());

  // Trailing garbage after a well-formed request body.
  std::string trailing(frame.payload);
  trailing.push_back('\0');
  EXPECT_FALSE(decode_request(frame.type, trailing).ok());

  // Oversized session id.
  PollRequest huge = req;
  huge.session_id.assign(kMaxSessionIdBytes + 1, 'x');
  EXPECT_FALSE(reparse(encode_poll(huge)).ok());
}

// ---------------------------------------------------------- VAL codec

std::string val_round_trip(const std::string& text) {
  std::string wire;
  put_value(wire, text);
  net::WireReader reader(wire);
  std::string back;
  EXPECT_TRUE(get_value(reader, back)) << "'" << text << "'";
  EXPECT_TRUE(reader.done()) << "'" << text << "'";
  return back;
}

TEST(ValCodec, PlainDecimalsPackAndEverythingElseTravelsAsText) {
  const std::vector<std::string> text = {
      "007", "1e5", "+3", ".5", "1.", " 1", "nan", "", "-", "-.5", "1.5.",
      "12345678901234567890",  // 20 digits
      std::string(25, '7')};
  for (const std::string& v : text) {
    std::string wire;
    put_value(wire, v);
    EXPECT_EQ(static_cast<std::uint8_t>(wire[0]), kValText) << "'" << v << "'";
    EXPECT_EQ(val_round_trip(v), v);
  }
  const std::vector<std::string> packed = {
      "0", "-0", "-0.00", "1.50", "0.05", "12.34", "-273.15",
      "9999999999999999999",     // 19 digits
      "-0.000000000000000001"};  // 19 digits, scale 18
  for (const std::string& v : packed) {
    std::string wire;
    put_value(wire, v);
    EXPECT_NE(static_cast<std::uint8_t>(wire[0]), kValText) << v;
    EXPECT_LE(wire.size(), 1 + 10u) << v;
    EXPECT_EQ(val_round_trip(v), v);
  }
  std::string wire;
  put_value(wire, "12.34");
  EXPECT_EQ(wire.size(), 3u) << "sign/scale byte plus a two-byte varint";
}

TEST(ValCodec, DecoderRefusesWhatNoPlainDecimalEncodes) {
  struct Case {
    std::uint8_t head;
    std::uint64_t digits;
  };
  const Case refused[] = {
      {19 << 1, 5},                                     // scale 19
      {0xfe, 0},                                        // scale 127
      {0, 10'000'000'000'000'000'000ull},               // 20 digits
      {1, std::numeric_limits<std::uint64_t>::max()}};  // 20 digits
  for (const Case& c : refused) {
    std::string wire;
    net::put_u8(wire, c.head);
    net::put_varint(wire, c.digits);
    net::WireReader reader(wire);
    std::string value;
    EXPECT_FALSE(get_value(reader, value)) << int{c.head} << " " << c.digits;
  }
}

// ------------------------------------------------------------- diff/apply

Metric make_metric(const std::string& name, double value,
                   std::uint32_t tn = 10) {
  Metric m;
  m.name = name;
  m.set_double(value);
  m.tn = tn;
  m.units = "count";
  return m;
}

Host make_host(const std::string& name, int metric_count, double base) {
  Host h;
  h.name = name;
  h.ip = "10.0.0.1";
  h.reported = 1000;
  h.tn = 5;
  for (int i = 0; i < metric_count; ++i) {
    h.metrics.push_back(make_metric("metric_" + std::to_string(i),
                                    base + i));
  }
  return h;
}

Report make_report(int hosts, int metrics) {
  Report r;
  r.source = "gmond";
  Cluster c;
  c.name = "alpha";
  c.localtime = 5000;
  c.owner = "ops";
  for (int i = 0; i < hosts; ++i) {
    Host h = make_host("node" + std::to_string(i), metrics, i * 100.0);
    c.hosts.emplace(h.name, std::move(h));
  }
  r.clusters.push_back(std::move(c));
  return r;
}

/// The central contract: when the differ claims a delta exists, applying
/// it to the old report must reproduce the new one byte-for-byte.
void expect_faithful_delta(const Report& oldr, const Report& newr,
                           bool must_delta) {
  NameDict dict;
  RowBuffer rows;
  const bool found = diff_report(oldr, newr, dict, rows);
  if (must_delta) {
    ASSERT_TRUE(found) << "differ unexpectedly bailed to full resync";
  }
  if (!found) return;  // full resync: always correct, just not incremental
  Report doc = oldr;
  std::vector<std::string> names;
  std::size_t applied = 0;
  const Status status = apply_rows(doc, rows.bytes, names, &applied);
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(applied, rows.row_count());
  EXPECT_EQ(write_report(doc), write_report(newr));
}

TEST(DiffApply, ValueChangeRoundTrips) {
  const Report oldr = make_report(4, 6);
  Report newr = oldr;
  newr.clusters[0].localtime += 15;
  newr.clusters[0].hosts.at("node2").metrics[3].set_double(123.75);
  expect_faithful_delta(oldr, newr, true);
}

TEST(DiffApply, IdenticalReportsDiffToNearNothing) {
  const Report r = make_report(3, 4);
  NameDict dict;
  RowBuffer rows;
  ASSERT_TRUE(diff_report(r, r, dict, rows));
  EXPECT_LT(rows.bytes.size(), 64u) << "no-change delta should be tiny";
  Report doc = r;
  std::vector<std::string> names;
  ASSERT_TRUE(apply_rows(doc, rows.bytes, names, nullptr).ok());
  EXPECT_EQ(write_report(doc), write_report(r));
}

TEST(DiffApply, UniformAgingUsesAdvanceRow) {
  const Report oldr = make_report(8, 10);
  Report newr = oldr;
  newr.clusters[0].localtime += 15;
  for (auto& [name, host] : newr.clusters[0].hosts) {
    (void)name;
    host.tn += 15;
    for (Metric& m : host.metrics) m.tn += 15;
  }
  NameDict dict;
  RowBuffer rows;
  ASSERT_TRUE(diff_report(oldr, newr, dict, rows));
  // 8 hosts x 10 metrics aging must not cost 80 per-metric rows.
  EXPECT_LT(rows.bytes.size(), 200u)
      << "uniform tn aging should compress via kRowAdvance";
  Report doc = oldr;
  std::vector<std::string> names;
  ASSERT_TRUE(apply_rows(doc, rows.bytes, names, nullptr).ok());
  EXPECT_EQ(write_report(doc), write_report(newr));
}

TEST(DiffApply, StructuralChangesRoundTrip) {
  const Report base = make_report(4, 3);

  {  // host joins
    Report newr = base;
    Host h = make_host("node9", 3, 900.0);
    newr.clusters[0].hosts.emplace(h.name, std::move(h));
    expect_faithful_delta(base, newr, false);
  }
  {  // host leaves
    Report newr = base;
    newr.clusters[0].hosts.erase("node1");
    expect_faithful_delta(base, newr, false);
  }
  {  // metric appended
    Report newr = base;
    newr.clusters[0].hosts.at("node0").metrics.push_back(
        make_metric("extra", 1.0));
    expect_faithful_delta(base, newr, false);
  }
  {  // metric removed
    Report newr = base;
    auto& metrics = newr.clusters[0].hosts.at("node0").metrics;
    metrics.erase(metrics.begin() + 1);
    expect_faithful_delta(base, newr, false);
  }
  {  // cluster added and host attrs changed
    Report newr = base;
    Cluster extra;
    extra.name = "beta";
    extra.localtime = 6000;
    Host h = make_host("b0", 2, 1.0);
    extra.hosts.emplace(h.name, std::move(h));
    newr.clusters.push_back(std::move(extra));
    newr.clusters[0].hosts.at("node3").location = "0,1,0";
    expect_faithful_delta(base, newr, false);
  }
}

TEST(DiffApply, SummaryFormRoundTrips) {
  Report oldr;
  Grid g;
  g.name = "root";
  g.authority = "gmetad://root/";
  g.localtime = 7000;
  Cluster c = make_report(3, 4).clusters[0];
  g.clusters.push_back(c);
  Grid child;
  child.name = "leaf";
  child.authority = "gmetad://leaf/";
  child.summary.emplace();
  child.summary->hosts_up = 10;
  child.summary->hosts_down = 1;
  child.summary->metrics["load_one"] = {12.5, 10, MetricType::double_t, ""};
  g.grids.push_back(std::move(child));
  oldr.grids.push_back(std::move(g));

  Report newr = oldr;
  SummaryInfo& summary = *newr.grids[0].grids[0].summary;
  summary.hosts_up = 9;
  summary.hosts_down = 2;
  summary.metrics["load_one"].sum = 14.25;
  summary.metrics["proc_total"] = {400.0, 9, MetricType::uint32, ""};
  newr.grids[0].clusters[0].hosts.at("node1").metrics[0].set_double(3.5);
  expect_faithful_delta(oldr, newr, true);
}

// VALs the codec must carry as raw text, then plain decimals it must pack.
const std::vector<std::string>& edge_vals() {
  static const std::vector<std::string> vals = {
      "007", "1e5", "+3", ".5", "1.", " 1", "nan",
      std::string(25, '9'),  // 25-digit integer
      "-0", "-0.00", "1.50", "0.05"};
  return vals;
}

/// Give `m` the VAL `text`.  A numeric metric keeps its type only when the
/// text parses as a number, as the XML parser requires.
void set_val(Metric& m, const std::string& text) {
  m.value = text;
  if (const auto num = parse_double(text)) {
    m.numeric = *num;
  } else {
    m.type = MetricType::string_t;
    m.numeric = 0.0;
  }
}

constexpr std::uint32_t kEditKinds = 13;

/// One random edit of kind `kind` to `host`.  Kinds 6-12 each change one
/// host field alone.
void edit_host(Host& host, std::uint32_t kind, Rng& rng,
               const std::string& tag) {
  Metric& metric = host.metrics[rng.next_below(
      static_cast<std::uint32_t>(host.metrics.size()))];
  const auto any_i64 = [&rng] {
    return static_cast<std::int64_t>(rng.next_u64() >> 2) - (1LL << 61);
  };
  switch (kind) {
    case 0: metric.set_double(rng.next_range(0.0, 1e6)); break;
    case 1: metric.tn += 1 + rng.next_below(100); break;
    case 2: host.tn += rng.next_below(50); break;
    case 3: host.metrics.push_back(make_metric("new_" + tag, 1.0)); break;
    case 4:
      if (host.metrics.size() > 1) host.metrics.pop_back();
      break;
    case 5:
      set_val(metric, edge_vals()[rng.next_below(
                          static_cast<std::uint32_t>(edge_vals().size()))]);
      break;
    case 6: host.ip = "10.1.0." + std::to_string(rng.next_below(256)); break;
    case 7: host.reported = any_i64(); break;
    case 8: host.tn = rng.next_below(1u << 31); break;
    case 9: host.tmax = rng.next_below(1000); break;
    case 10: host.dmax = rng.next_below(1u << 31); break;
    case 11: host.location = tag + "," + std::to_string(kind) + ",0"; break;
    case 12: host.gmond_started = any_i64(); break;
  }
}

TEST(DiffApply, SameOrderAndReorderedHostsEachReproduceTheNewReport) {
  const Report oldr = make_report(3, 6);
  Report newr = oldr;
  newr.clusters[0].localtime += 15;
  // node0 keeps its metric list: values and TNs move, names stay put.
  auto& same = newr.clusters[0].hosts.at("node0").metrics;
  same[1].set_double(-4.5);
  same[4].tn = 0;
  // node1 loses a metric from the middle and gains one at the end.
  auto& moved = newr.clusters[0].hosts.at("node1").metrics;
  moved.erase(moved.begin() + 2);
  moved.push_back(make_metric("late", 7.0));
  moved[0].set_double(99.0);
  expect_faithful_delta(oldr, newr, true);

  // Rows name a metric, so a host listing one twice has no delta on
  // either path: unchanged order, or a metric appended.
  Report dup_old = oldr;
  dup_old.clusters[0].hosts.at("node2").metrics[3].name = "metric_0";
  for (const bool append : {false, true}) {
    Report dup_new = dup_old;
    auto& metrics = dup_new.clusters[0].hosts.at("node2").metrics;
    metrics[5].set_double(1.25);
    if (append) metrics.push_back(make_metric("late", 7.0));
    NameDict dict;
    RowBuffer rows;
    EXPECT_FALSE(diff_report(dup_old, dup_new, dict, rows))
        << (append ? "reordered" : "same-order") << " host with a duplicate";
  }
}

TEST(DiffApply, RandomizedMutationsNeverDiverge) {
  Rng rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    const Report oldr =
        make_report(3 + static_cast<int>(rng.next_below(3)),
                    2 + static_cast<int>(rng.next_below(4)));
    Report newr = oldr;
    const int edits = 1 + static_cast<int>(rng.next_below(5));
    for (int e = 0; e < edits; ++e) {
      Cluster& c = newr.clusters[0];
      auto host_it = c.hosts.begin();
      std::advance(host_it, rng.next_below(
          static_cast<std::uint32_t>(c.hosts.size())));
      edit_host(host_it->second, rng.next_below(kEditKinds), rng,
                std::to_string(iter) + "_" + std::to_string(e));
    }
    expect_faithful_delta(oldr, newr, false);
  }

  // Every edit kind alone, every edge VAL alone, and the extreme REPORTED
  // and GMOND_STARTED jumps that still fit an int64 delta.
  const Report base = make_report(3, 4);
  for (std::uint32_t kind = 0; kind < kEditKinds; ++kind) {
    Report newr = base;
    edit_host(newr.clusters[0].hosts.at("node1"), kind, rng, "alone");
    expect_faithful_delta(base, newr, true);
  }
  for (const std::string& text : edge_vals()) {
    Report newr = base;
    set_val(newr.clusters[0].hosts.at("node0").metrics[1], text);
    expect_faithful_delta(base, newr, true);
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Report extremes = base;
  extremes.clusters[0].hosts.at("node2").reported = kMax;
  extremes.clusters[0].hosts.at("node2").gmond_started = -kMax;
  expect_faithful_delta(base, extremes, true);
  expect_faithful_delta(extremes, base, true);

  // A jump no int64 delta holds falls back to a full.
  Report wrapped = extremes;
  wrapped.clusters[0].hosts.at("node2").reported = -kMax;
  NameDict dict;
  RowBuffer rows;
  EXPECT_FALSE(diff_report(extremes, wrapped, dict, rows));
}

TEST(DiffApply, ApplierRejectsUnknownDictionaryIds) {
  Report doc = make_report(2, 2);
  std::string select;
  net::put_u8(select, kRowCluster);
  net::put_string(select, "alpha");
  net::put_u8(select, kRowDefineName);
  net::put_varint(select, 0);
  net::put_string(select, "node0");
  net::put_u8(select, kRowHost);
  net::put_varint(select, 0);
  {
    Report copy = doc;
    std::vector<std::string> names;
    ASSERT_TRUE(apply_rows(copy, select, names, nullptr).ok());
  }
  std::string metric = select;
  net::put_u8(metric, kRowMetricTn);
  net::put_varint(metric, 9999);  // never defined
  net::put_varint(metric, 1);
  std::vector<std::string> names;
  EXPECT_FALSE(apply_rows(doc, metric, names, nullptr).ok());

  for (const std::uint8_t tag : {kRowHost, kRowHostRemove}) {
    std::string host = select;
    net::put_u8(host, tag);
    net::put_varint(host, 1);  // one past the dictionary
    Report copy = make_report(2, 2);
    std::vector<std::string> fresh;
    EXPECT_FALSE(apply_rows(copy, host, fresh, nullptr).ok()) << int{tag};
  }
}

TEST(NameDict, DenseIdsTruncateAndABudgetForAHundredThousandHosts) {
  NameDict dict;
  std::uint32_t id = 0;
  for (const char* name : {"a", "b", "c", "d"}) ASSERT_TRUE(dict.add(name, id));
  EXPECT_EQ(id, 3u);
  dict.truncate(2);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_FALSE(dict.find("c").has_value());
  EXPECT_EQ(dict.find("b").value_or(0), 1u);
  ASSERT_TRUE(dict.add("d", id));
  EXPECT_EQ(id, 2u) << "ids stay dense after a truncate";

  // A child naming 100,000 hosts of 80 bytes, plus its metric names, fits
  // both the id cap and the byte budget.
  EXPECT_TRUE(dict_admits(100'000 + 255, 100'000 * 80 + 255 * 64, 80));
  EXPECT_FALSE(dict_admits(kMaxNameIds, 0, 1));
  EXPECT_FALSE(dict_admits(0, kMaxNameBytes, 1));
  EXPECT_FALSE(dict_admits(0, 0, kMaxStringBytes + 1));
}

// -------------------------------------------------- publisher <-> session

struct PubRig {
  net::InMemTransport transport;
  std::shared_ptr<const Report> current;
  std::uint64_t version = 1;
  std::unique_ptr<Publisher> publisher;

  explicit PubRig(Report initial, PublisherOptions opts = {}) {
    current = std::make_shared<const Report>(std::move(initial));
    publisher = std::make_unique<Publisher>(
        [this](View) { return Doc{current, version}; }, opts);
    transport.register_service("pub:1", publisher->service());
  }

  void update(Report next) {
    current = std::make_shared<const Report>(std::move(next));
    ++version;
  }
};

SessionOptions session_options(std::size_t max_frame = kMaxFrameBytes) {
  SessionOptions opts;
  opts.address = "pub:1";
  opts.max_frame = max_frame;
  return opts;
}

TEST(PublisherSession, FullThenDeltaConvergence) {
  PubRig rig(make_report(6, 8));
  Session session(session_options());

  auto first = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_FALSE(first->delta) << "first poll must be a full transfer";
  EXPECT_EQ(write_report(first->report), write_report(*rig.current));
  const std::size_t full_bytes = first->bytes;

  // Steady state: one value changes; the poll moves a delta, far smaller.
  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  next.clusters[0].hosts.at("node3").metrics[2].set_double(77.5);
  rig.update(std::move(next));

  auto second = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_TRUE(second->delta);
  EXPECT_FALSE(second->resync);
  EXPECT_EQ(write_report(second->report), write_report(*rig.current));
  EXPECT_LT(second->bytes * 10, full_bytes)
      << "single-value delta should be >10x smaller than the full dump";

  // Unchanged document: the delta degenerates to almost nothing.
  auto third = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->delta);
  EXPECT_EQ(write_report(third->report), write_report(*rig.current));

  const PublisherStats stats = rig.publisher->stats();
  EXPECT_EQ(stats.polls, 3u);
  EXPECT_EQ(stats.fulls, 1u);
  EXPECT_EQ(stats.deltas, 2u);
  EXPECT_EQ(stats.sessions, 1u);
}

TEST(PublisherSession, DictionaryAmortizesAcrossDeltas) {
  PubRig rig(make_report(6, 8));
  Session session(session_options());
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  // Same-shape change twice: the first delta pays kRowDefineName for the
  // touched metric names, the second reuses the session dictionary.
  std::size_t delta_bytes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    Report next = *rig.current;
    next.clusters[0].localtime += 15;
    for (auto& [name, host] : next.clusters[0].hosts) {
      (void)name;
      for (Metric& m : host.metrics) m.set_double(m.numeric + 1.0);
    }
    rig.update(std::move(next));
    auto outcome = session.poll(rig.transport, kTimeout);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->delta);
    delta_bytes[i] = outcome->bytes;
  }
  EXPECT_LT(delta_bytes[1], delta_bytes[0])
      << "second delta must not re-send dictionary definitions";
}

/// Sum of the kFrameRows payloads in one framed response.
std::size_t row_bytes(std::string_view response) {
  std::size_t total = 0;
  net::Frame frame;
  std::size_t consumed = 0;
  while (net::parse_frame(response, kMaxFrameBytes, frame, consumed) ==
         net::FrameParse::ok) {
    if (frame.type == kFrameRows) total += frame.payload.size();
    response.remove_prefix(consumed);
  }
  return total;
}

TEST(PublisherSession, SteadyHostAndValueRowsArePacked) {
  // The steady churn of a soft-state gmond: a heartbeat moves a host's
  // REPORTED, TN and GMOND_STARTED, and a rebroadcast moves one
  // plain-decimal VAL.  Once the dictionary knows the names, the host
  // costs at most 8 bytes of rows (select plus attributes), the VAL at
  // most 6.
  PubRig rig(make_report(6, 8));
  std::string response;
  rig.transport.register_service(
      "spy:1", [&](std::string_view request) -> Result<std::string> {
        response = rig.publisher->serve(request);
        return response;
      });
  SessionOptions opts = session_options();
  opts.address = "spy:1";
  Session session(opts);
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  const auto heartbeat = [](Report& r) {
    Host& h = r.clusters[0].hosts.at("node3");
    h.reported += 10;
    h.tn += 1;
    h.gmond_started += 15;
  };
  double val = 12.5;
  const auto heartbeat_and_val = [&](Report& r) {
    heartbeat(r);
    val += 0.25;  // "12.75", "13.25": four digits, scale 2
    r.clusters[0].hosts.at("node3").metrics[2].set_double(val);
  };
  const auto delta_rows = [&](const std::function<void(Report&)>& edit) {
    Report next = *rig.current;
    edit(next);
    rig.update(std::move(next));
    auto outcome = session.poll(rig.transport, kTimeout);
    EXPECT_TRUE(outcome.ok() && outcome->delta);
    if (outcome.ok()) {
      EXPECT_EQ(write_report(outcome->report), write_report(*rig.current));
    }
    return row_bytes(response);
  };

  delta_rows(heartbeat_and_val);  // defines the host and metric names
  const std::size_t host_only = delta_rows(heartbeat);
  const std::size_t host_and_val = delta_rows(heartbeat_and_val);
  std::string cluster_select;
  net::put_u8(cluster_select, kRowCluster);
  net::put_string(cluster_select, "alpha");
  EXPECT_LE(host_only - cluster_select.size(), 8u);
  EXPECT_LE(host_and_val - host_only, 6u);
}

TEST(PublisherSession, DefinesPastTheByteBudgetForceResync) {
  // A hostile publisher answers one poll with a delta that only defines
  // names, one past the dictionary's byte budget.  The session must refuse
  // it, drop its base, and resync from the next full without divergence.
  PubRig rig(make_report(3, 3));
  bool hostile = false;
  std::uint64_t from = 0;
  rig.transport.register_service(
      "evil:1", [&](std::string_view request) -> Result<std::string> {
        if (!hostile) return rig.publisher->serve(request);
        const std::string name(kMaxStringBytes - 8, 'n');
        const std::size_t count = kMaxNameBytes / name.size() + 1;
        std::string out;
        std::string begin;
        net::put_varint(begin, from);
        net::put_varint(begin, from + 1);
        net::put_frame(out, kFrameDeltaBegin, begin);
        for (std::size_t id = 0; id < count; ++id) {
          std::string row;
          net::put_u8(row, kRowDefineName);
          net::put_varint(row, id);
          net::put_string(row, name);
          net::put_frame(out, kFrameRows, row);
        }
        std::string end;
        net::put_varint(end, count);
        net::put_frame(out, kFrameEnd, end);
        return out;
      });
  SessionOptions opts = session_options();
  opts.address = "evil:1";
  Session session(opts);
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  from = session.last_version();
  hostile = true;
  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  rig.update(std::move(next));
  const auto refused = session.poll(rig.transport, kTimeout);
  EXPECT_FALSE(refused.ok()) << "defines past the byte budget were applied";
  EXPECT_FALSE(session.has_base());

  hostile = false;
  const auto resynced = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(resynced.ok()) << resynced.error().to_string();
  EXPECT_FALSE(resynced->delta);
  EXPECT_EQ(write_report(resynced->report), write_report(*rig.current));
}

TEST(PublisherSession, DictionaryAtItsByteBudgetAnswersFull) {
  // Host names that together pass the byte budget: a delta touching every
  // host would have to define them all, so the publisher answers a full.
  Report report = make_report(0, 0);
  const std::size_t name_bytes = 60'000;
  for (std::size_t i = 0; i <= kMaxNameBytes / name_bytes; ++i) {
    Host h = make_host(std::to_string(i) + std::string(name_bytes, 'h'), 1,
                       1.0);
    report.clusters[0].hosts.emplace(h.name, std::move(h));
  }
  PubRig rig(std::move(report));
  Session session(session_options());
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  Report next = *rig.current;
  for (auto& [name, host] : next.clusters[0].hosts) {
    (void)name;
    host.metrics[0].set_double(2.0);
  }
  rig.update(std::move(next));
  const auto outcome = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_FALSE(outcome->delta) << "the delta would define past the budget";
  EXPECT_EQ(write_report(outcome->report), write_report(*rig.current));
  EXPECT_EQ(rig.publisher->stats().fulls, 2u);
}

TEST(PublisherSession, EvictedSessionResyncsCleanly) {
  PublisherOptions opts;
  opts.max_sessions = 1;
  PubRig rig(make_report(3, 3), opts);
  Session a(session_options());
  Session b(session_options());

  ASSERT_TRUE(a.poll(rig.transport, kTimeout).ok());
  ASSERT_TRUE(b.poll(rig.transport, kTimeout).ok());  // evicts a

  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  rig.update(std::move(next));

  auto outcome = a.poll(rig.transport, kTimeout);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->delta) << "evicted session must get a full resync";
  EXPECT_TRUE(outcome->resync);
  EXPECT_EQ(write_report(outcome->report), write_report(*rig.current));
  EXPECT_GE(rig.publisher->stats().evictions, 1u);
}

TEST(PublisherSession, PingPong) {
  PubRig rig(make_report(2, 2));
  Session session(session_options());
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());
  const Status pong = session.ping(rig.transport, kTimeout);
  EXPECT_TRUE(pong.ok()) << pong.error().to_string();
  EXPECT_EQ(rig.publisher->stats().pings, 1u);
}

TEST(PublisherSession, DigestExchangeSharesThePollStream) {
  // A membership digest rides the same persistent connection as the polls:
  // the publisher routes digest frames to its handler and the session's
  // poll state is untouched on either side of the exchange.
  PubRig rig(make_report(4, 4));
  std::string seen;
  rig.publisher->set_digest_handler(
      [&seen](std::string_view payload) -> Result<std::string> {
        seen = std::string(payload);
        return std::string("digest-reply");
      });
  Session session(session_options());
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  auto reply = session.digest_exchange(rig.transport, kTimeout, "digest-req");
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(*reply, "digest-reply");
  EXPECT_EQ(seen, "digest-req");
  EXPECT_EQ(rig.publisher->stats().digests, 1u);

  // The poll session is still incremental — the digest did not reset it.
  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  rig.update(std::move(next));
  auto outcome = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->delta);
  EXPECT_EQ(write_report(outcome->report), write_report(*rig.current));
}

TEST(PublisherSession, DigestWithoutHandlerErrorsWithoutBreakingPolls) {
  PubRig rig(make_report(2, 2));
  Session session(session_options());
  ASSERT_TRUE(session.poll(rig.transport, kTimeout).ok());

  auto reply = session.digest_exchange(rig.transport, kTimeout, "payload");
  EXPECT_FALSE(reply.ok()) << "no handler wired -> structured error";

  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  rig.update(std::move(next));
  auto outcome = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->delta) << "digest failure must not reset the poll base";
  EXPECT_EQ(write_report(outcome->report), write_report(*rig.current));
}

TEST(PublisherSession, TinyMaxFrameChunksBothDirections) {
  // A document whose XML and whose deltas both exceed one frame: the
  // publisher must chunk at row boundaries and the session reassemble.
  PublisherOptions opts;
  opts.max_frame = kMinFrameBytes;
  PubRig rig(make_report(40, 12), opts);
  Session session(session_options(kMinFrameBytes));

  auto first = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_GT(first->bytes, kMinFrameBytes) << "test needs a multi-chunk full";
  EXPECT_EQ(write_report(first->report), write_report(*rig.current));

  Report next = *rig.current;
  next.clusters[0].localtime += 15;
  for (auto& [name, host] : next.clusters[0].hosts) {
    (void)name;
    for (Metric& m : host.metrics) m.set_double(m.numeric + 0.5);
  }
  rig.update(std::move(next));
  auto second = session.poll(rig.transport, kTimeout);
  ASSERT_TRUE(second.ok()) << second.error().to_string();
  EXPECT_EQ(write_report(second->report), write_report(*rig.current));
}

TEST(PublisherSession, GarbageRequestGetsErrorFrameNotCrash) {
  PubRig rig(make_report(2, 2));
  const std::string response = rig.publisher->serve("complete garbage");
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(response, kMaxFrameBytes, frame, consumed),
            net::FrameParse::ok);
  EXPECT_EQ(frame.type, kFrameError);
  EXPECT_EQ(rig.publisher->stats().errors, 1u);
}

// --------------------------------------------------------- testbed proof

gmetad::TestbedSpec small_tree(bool federation) {
  gmetad::TestbedSpec spec;
  spec.nodes = {
      {"root", {"leaf"}, {"meteor"}},
      {"leaf", {}, {"nashi", "attic"}},
  };
  spec.hosts_per_cluster = 6;
  spec.archive_enabled = false;
  spec.soft_state = true;
  spec.federation = federation;
  return spec;
}

/// The acceptance-criteria simulation: a delta-federated tree must render
/// the exact same document as a legacy full-fetch tree at every round,
/// while moving a fraction of the bytes at steady state.
TEST(DeltaFederation, TestbedMatchesFullFetchByteForByte) {
  gmetad::Testbed fed(small_tree(true));
  gmetad::Testbed ref(small_tree(false));

  std::uint64_t fed_prev = 0, ref_prev = 0;
  std::uint64_t fed_last = 0, ref_last = 0;
  for (int round = 0; round < 6; ++round) {
    fed.run_round();
    ref.run_round();
    ASSERT_EQ(fed.node("root").dump_xml(), ref.node("root").dump_xml())
        << "divergence at round " << round;
    ASSERT_EQ(fed.node("leaf").dump_xml(), ref.node("leaf").dump_xml());
    std::uint64_t fed_total = 0, ref_total = 0;
    for (const char* name : {"root", "leaf"}) {
      fed_total += fed.node(name).bytes_polled();
      ref_total += ref.node(name).bytes_polled();
    }
    fed_last = fed_total - fed_prev;
    ref_last = ref_total - ref_prev;
    fed_prev = fed_total;
    ref_prev = ref_total;
  }

  // Steady state (warm sessions): the last round's wire bytes shrink.
  EXPECT_LT(fed_last * 2, ref_last)
      << "delta polls should move far fewer bytes (fed=" << fed_last
      << " ref=" << ref_last << ")";

  // Every edge actually ran incrementally.
  for (const char* name : {"root", "leaf"}) {
    for (const gmetad::DataSource* source : fed.node(name).sources()) {
      EXPECT_GT(source->delta_polls(), 0u)
          << name << "/" << source->name() << " never went incremental";
      EXPECT_EQ(source->session_mode(fed.clock().now_seconds()), "delta");
    }
    const PublisherStats stats = fed.node(name).federation_stats();
    if (name == std::string("leaf")) {
      EXPECT_GT(stats.deltas, 0u) << "child publisher served no deltas";
    }
  }
}

/// Every node's dump and every summary archive since `since` of a
/// delta-federated tree against the same tree on XML dumps, byte for byte.
/// Adds the number of archived series compared to `series`.
void expect_every_node_equal(gmetad::Testbed& fed, gmetad::Testbed& ref,
                             std::int64_t since, const std::string& when,
                             std::size_t& series) {
  const std::int64_t now = fed.clock().now_seconds();
  for (const gmetad::TestbedNodeSpec& spec : fed.spec().nodes) {
    gmetad::Gmetad& a = fed.node(spec.name);
    gmetad::Gmetad& b = ref.node(spec.name);
    ASSERT_EQ(a.dump_xml(), b.dump_xml()) << spec.name << " " << when;
    // Summary archives: the node's own grid, each source, each cluster.
    std::vector<std::string> scopes = {spec.name};
    std::set<std::string> metrics;
    for (const auto& snapshot : b.store().all()) {
      scopes.push_back(snapshot->name());
      for (const Cluster& c : snapshot->clusters()) {
        scopes.push_back(snapshot->name() + "/" + c.name);
      }
      for (const auto& [name, m] : snapshot->summary().metrics) {
        metrics.insert(name);
      }
    }
    for (const std::string& scope : scopes) {
      for (const std::string& metric : metrics) {
        for (const std::size_t ds : {0u, 1u}) {
          const auto x =
              a.archiver().fetch_summary_metric(scope, metric, since, now, ds);
          const auto y =
              b.archiver().fetch_summary_metric(scope, metric, since, now, ds);
          ASSERT_EQ(x.ok(), y.ok()) << spec.name << " " << scope << "/"
                                    << metric << " " << when;
          if (!x.ok()) continue;
          ++series;
          ASSERT_EQ(x->start, y->start);
          ASSERT_EQ(x->values.size(), y->values.size());
          ASSERT_EQ(std::memcmp(x->values.data(), y->values.data(),
                                x->values.size() * sizeof(double)),
                    0)
              << spec.name << " " << scope << "/" << metric << " ds " << ds
              << " " << when;
        }
      }
    }
  }
}

gmetad::TestbedSpec fig2_tree(std::size_t hosts, gmetad::Mode mode,
                              bool federation) {
  gmetad::TestbedSpec spec = gmetad::fig2_spec(hosts, mode);
  spec.soft_state = true;
  spec.federation = federation;
  return spec;
}

/// Both fig-2 trees through twelve rounds: a leaf gmond's services leave
/// the fabric for two of them, and another cluster loses three hosts.
void run_faulted_fig2(std::size_t hosts, gmetad::Mode mode) {
  gmetad::Testbed fed(fig2_tree(hosts, mode, true));
  gmetad::Testbed ref(fig2_tree(hosts, mode, false));
  const std::string gone = "physics-alpha";
  const std::int64_t since = fed.clock().now_seconds();
  std::size_t series = 0;
  for (int round = 0; round < 12; ++round) {
    if (round == 4) {
      for (gmetad::Testbed* bed : {&fed, &ref}) {
        bed->transport().unregister_service(
            gmetad::Testbed::gmond_address(gone));
        bed->transport().unregister_service(
            gmetad::Testbed::gmond_federation_address(gone));
      }
    }
    if (round == 6) {
      for (gmetad::Testbed* bed : {&fed, &ref}) {
        bed->transport().register_service(gmetad::Testbed::gmond_address(gone),
                                          bed->cluster(gone).service());
      }
      fed.transport().register_service(
          gmetad::Testbed::gmond_federation_address(gone),
          fed.cluster(gone).federation_service());
    }
    if (round == 8) {
      fed.cluster("attic-beta").set_down_hosts(3);
      ref.cluster("attic-beta").set_down_hosts(3);
    }
    fed.run_round();
    ref.run_round();
    expect_every_node_equal(fed, ref, since,
                            "at round " + std::to_string(round) + ", " +
                                std::to_string(hosts) + " hosts/cluster",
                            series);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (mode == gmetad::Mode::n_level) {
    EXPECT_GT(series, 0u) << "an N-level tree archives summaries to compare";
  }
  // Every gmetad edge ended the run incremental.
  for (const char* parent : {"root", "ucsd", "sdsc"}) {
    for (const gmetad::DataSource* source : fed.node(parent).sources()) {
      EXPECT_EQ(source->session_mode(fed.clock().now_seconds()), "delta")
          << parent << "<-" << source->name();
    }
  }
}

/// Steady-state bytes per poll on root<-ucsd, averaged over four deltas.
double grid_edge_bytes_per_poll(std::size_t hosts) {
  gmetad::TestbedSpec spec = fig2_tree(hosts, gmetad::Mode::n_level, true);
  spec.archive_enabled = false;
  gmetad::Testbed bed(spec);
  bed.run_rounds(3);
  const gmetad::DataSource* ucsd = nullptr;
  for (const gmetad::DataSource* source : bed.node("root").sources()) {
    if (source->name() == "ucsd") ucsd = source;
  }
  EXPECT_NE(ucsd, nullptr);
  if (ucsd == nullptr) return 0;
  const std::uint64_t before = ucsd->bytes_delta();
  const std::uint64_t deltas = ucsd->delta_polls();
  bed.run_rounds(4);
  EXPECT_EQ(ucsd->delta_polls(), deltas + 4) << "every poll a delta";
  return static_cast<double>(ucsd->bytes_delta() - before) / 4;
}

TEST(DeltaFederation, NLevelTreeMatchesXmlAtEveryNodeAndArchiveUnderFaults) {
  for (const std::size_t hosts : {8u, 50u}) {
    SCOPED_TRACE(std::to_string(hosts) + " hosts/cluster");
    run_faulted_fig2(hosts, gmetad::Mode::n_level);
    if (HasFatalFailure()) return;
  }
}

TEST(DeltaFederation, OneLevelTreeStillCarriesHostDetail) {
  run_faulted_fig2(6, gmetad::Mode::one_level);
  if (HasFatalFailure()) return;
  // A 1-level parent asks for the whole tree: the root holds host rows of
  // a cluster two gmetads down.
  gmetad::Testbed fed(fig2_tree(6, gmetad::Mode::one_level, true));
  fed.run_rounds(3);
  const std::string dump = fed.node("root").dump_xml();
  const auto cluster = dump.find("<CLUSTER NAME=\"physics-beta\"");
  ASSERT_NE(cluster, std::string::npos);
  EXPECT_NE(dump.find("<HOST NAME=", cluster), std::string::npos);
  for (const gmetad::DataSource* source : fed.node("root").sources()) {
    EXPECT_GT(source->delta_polls(), 0u) << source->name();
  }
}

TEST(DeltaFederation, GridEdgeBytesDoNotGrowWithClusterSize) {
  // An N-level parent keeps a child's grid as one summary, so what the
  // edge carries per poll is the summary's churn, not the child's hosts.
  const double small = grid_edge_bytes_per_poll(4);
  const double large = grid_edge_bytes_per_poll(40);
  EXPECT_GT(small, 0.0);
  EXPECT_LT(large, small * 1.15)
      << "root<-ucsd: " << small << " B/poll at 4 hosts/cluster, " << large
      << " B/poll at 40";
}

TEST(DeltaFederation, GossipDiscoveredEndpointsGoIncremental) {
  // Without explicit fed= config the testbed still wires federation
  // addresses; this covers the sources() introspection the /api/v1 route
  // reads, at fig-2 shape but tiny scale.
  gmetad::TestbedSpec spec = gmetad::fig2_spec(2, gmetad::Mode::n_level);
  spec.archive_enabled = false;
  spec.federation = true;
  spec.soft_state = true;
  gmetad::Testbed bed(spec);
  bed.run_rounds(3);
  std::uint64_t deltas = 0;
  for (const gmetad::DataSource* source : bed.node("root").sources()) {
    deltas += source->delta_polls();
    EXPECT_GT(source->bytes_full(), 0u) << "first poll is always a full";
  }
  EXPECT_GT(deltas, 0u);
}

}  // namespace
}  // namespace ganglia::fed
