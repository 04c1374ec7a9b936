#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

thread_local Scope* t_current = nullptr;

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

// ----------------------------------------------------------------- samples

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ------------------------------------------------------- host diagnostics

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double calibration_kernel_ms() {
  // 4 MiB working set: a xorshift fill, a copy, and a dependent sum,
  // repeated a fixed number of times.
  constexpr std::size_t kWords = (4u << 20) / sizeof(std::uint64_t);
  // Zero-filled up front, so page faults stay outside the timed part.
  std::vector<std::uint64_t> a(kWords), b(kWords);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  const std::int64_t start = wall_ns();
  for (int pass = 0; pass < 12; ++pass) {
    for (std::uint64_t& w : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    std::memcpy(b.data(), a.data(), kWords * sizeof(std::uint64_t));
    for (const std::uint64_t w : b) sum = (sum ^ w) * 0x100000001b3ULL;
  }
  const std::int64_t end = wall_ns();
  // Keep the result observable so the loops are not optimised away.
  static volatile std::uint64_t sink;
  sink = sink + sum;
  return ns_to_ms(end - start);
}

// ------------------------------------------------------------------ result

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

// ------------------------------------------------------------------ tracer

std::uint32_t Tracer::open(const char* name, const std::string& node,
                           std::uint64_t id, std::uint32_t parent,
                           std::int64_t start_ns) {
  std::lock_guard lock(mutex_);
  Span span;
  span.name = name;
  span.node = node;
  span.id = id;
  span.parent = parent;
  span.start_ns = start_ns;
  spans_.push_back(std::move(span));
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t index, std::int64_t end_ns,
                   std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  spans_[index].end_ns = end_ns;
  spans_[index].bytes = bytes;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  out << "index\tparent\tname\tnode\tid\tstart_ns\tend_ns\tbytes\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t'
        << (s.parent == Span::kNoParent ? std::string("-")
                                        : std::to_string(s.parent))
        << '\t' << s.name << '\t' << (s.node.empty() ? "-" : s.node) << '\t'
        << s.id << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.bytes
        << '\n';
  }
  return static_cast<bool>(out);
}

Scope::Scope(Tracer& tracer, const char* name, const std::string& node,
             std::uint64_t id)
    : tracer_(tracer),
      parent_(t_current),
      start_wall_(perfbench::wall_ns()),
      start_cpu_(thread_cpu_ns()) {
  if (tracer_.recording()) {
    span_ = tracer_.open(name, node, id,
                         parent_ != nullptr ? parent_->span_ : Span::kNoParent,
                         start_wall_);
  }
  t_current = this;
}

void Scope::finish() {
  if (!open_) return;
  open_ = false;
  const std::int64_t end_cpu = thread_cpu_ns();
  const std::int64_t end_wall = perfbench::wall_ns();
  wall_ = end_wall - start_wall_;
  cpu_ = end_cpu - start_cpu_;
  if (span_ != Span::kNoParent) tracer_.close(span_, end_wall, bytes_);
  if (parent_ != nullptr) parent_->child_cpu_ += cpu_;
  t_current = parent_;
}

Scope::~Scope() { finish(); }

std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] += spans[i].ms();
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent) self[s.parent] -= s.ms();
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_ms(spans);
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    t.ms += spans[i].ms();
    t.self_ms += self[i];
    t.bytes += spans[i].bytes;
  }
  return totals;
}

void report_trace_coverage(const std::vector<Span>& spans,
                           const Samples& traced_round_ms,
                           const Samples& untraced_round_ms, RunResult& r) {
  const double traced = traced_round_ms.median();
  const double overhead = traced - untraced_round_ms.median();
  r.set("trace.round_ms_p50", traced, "ms");
  r.set("trace.untraced_round_ms_p50", untraced_round_ms.median(), "ms");
  r.set("trace.overhead_ms", overhead, "ms");
  const auto totals = layer_totals(spans);
  const auto rounds = totals.find("round");
  const double outside =
      rounds == totals.end() || traced_round_ms.size() == 0
          ? 0
          : rounds->second.self_ms / static_cast<double>(traced_round_ms.size());
  r.set("trace.outside_spans_ms_per_round", outside, "ms");
  char what[160];
  std::snprintf(what, sizeof what,
                "%.4f ms of each traced round is outside its child spans, "
                "more than the tracing overhead of %.4f ms",
                outside, overhead);
  r.check(outside <= std::max(std::abs(overhead), 0.01 * traced), what);
}

}  // namespace perfbench
