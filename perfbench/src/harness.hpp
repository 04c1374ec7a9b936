// Measurement plumbing shared by the perfbench workloads: sample sets,
// CPU and memory probes, host-noise diagnostics, the result record each
// workload fills in, and the tracer whose spans are recorded from the
// benchmark's own wrappers around the program's public entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ clocks

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Does round `i` of a traced run record spans?  Every other round, with
/// the phase flipped every eight rounds, so in every sixteen rounds each
/// residue modulo 2, 4 and 8 is traced as often as not: the gossip group
/// does extra work every eighth round, and strict alternation would put
/// all of it in one half and bias the traced-minus-untraced overhead.
inline bool traced_round(bool trace, std::size_t i) {
  return trace && (i + i / 8) % 2 == 0;
}

// ----------------------------------------------------------------- samples

/// A set of measurements; percentiles interpolate linearly between ranks.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const noexcept { return values_.size(); }
  double percentile(double p) const;
  double median() const { return percentile(50); }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

// ------------------------------------------------------- host diagnostics

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Wall milliseconds of a fixed integer-and-memory kernel.  Timed before
/// and after each run, it shows host speed drift apart from program change.
double calibration_kernel_ms();

// ------------------------------------------------------------------ result

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: correctness tallies, the metrics the
/// requested mode prints as JSON, and notes printed beside them.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::map<std::string, Metric> metrics;
  /// Raw samples behind the <name>_pNN end-to-end metrics, so run.py can
  /// pool them across processes before taking percentiles.
  std::map<std::string, Samples> samples;
  std::vector<std::string> notes;     ///< printed, never part of the JSON

  /// Count one attempted operation; a false `ok` records a failure.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// ------------------------------------------------------------------ tracer

/// One span: a timed call into a layer.  `parent` indexes the enclosing
/// span on the same thread (or kNoParent); `id` is the poll round or the
/// HTTP request id, which joins a handler span to its client span across
/// threads.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::string node;
  std::uint64_t id = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;

  double ms() const { return ns_to_ms(end_ns - start_ns); }
};

/// In-memory span store.  Wrappers always open a Scope (it also carries
/// the CPU accounting the end-to-end metrics need); spans are only kept
/// while recording is on.
class Tracer {
 public:
  /// Toggled by the main thread between rounds; read by the HTTP worker.
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  bool recording() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }

  std::uint32_t open(const char* name, const std::string& node,
                     std::uint64_t id, std::uint32_t parent,
                     std::int64_t start_ns);
  void close(std::uint32_t index, std::int64_t end_ns, std::uint64_t bytes);

  /// Snapshot of every recorded span (call once the workload is quiet).
  std::vector<Span> spans() const;
  /// Write the spans as tab-separated lines; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII probe around one call into a layer.  Nested scopes on the same
/// thread charge their CPU time to the enclosing scope, so its self CPU is
/// the scope minus its children.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const std::string& node,
        std::uint64_t id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }
  /// Close now so the totals below can be read; the destructor then does
  /// nothing.
  void finish();

  std::int64_t wall_ns() const { return wall_; }
  std::int64_t cpu_ns() const { return cpu_; }
  std::int64_t self_cpu_ns() const { return cpu_ - child_cpu_; }

 private:
  Tracer& tracer_;
  Scope* parent_;
  std::uint32_t span_ = Span::kNoParent;
  std::int64_t start_wall_;
  std::int64_t start_cpu_;
  std::int64_t wall_ = 0;
  std::int64_t cpu_ = 0;
  std::int64_t child_cpu_ = 0;
  std::uint64_t bytes_ = 0;
  bool open_ = true;
};

/// Each span's duration minus its child spans', by span index.
std::vector<double> self_ms(const std::vector<Span>& spans);

/// Per-span-name aggregates over a recorded trace.
struct LayerTotals {
  double ms = 0;       ///< inclusive wall time
  double self_ms = 0;  ///< minus child spans
  std::uint64_t bytes = 0;
};
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Tracing overhead and coverage of a traced run whose rounds interleave
/// traced and untraced ones (traced_round).  Sets trace.round_ms_p50,
/// trace.untraced_round_ms_p50, trace.overhead_ms (their difference) and
/// trace.outside_spans_ms_per_round: the self time of the "round" spans,
/// the part of a traced round that no child span covers.  Checks that this
/// part is within the tracing overhead (or 1% of the round, when the
/// overhead reads smaller than that), so the child spans account for the
/// round.
void report_trace_coverage(const std::vector<Span>& spans,
                           const Samples& traced_round_ms,
                           const Samples& untraced_round_ms, RunResult& r);

}  // namespace perfbench
