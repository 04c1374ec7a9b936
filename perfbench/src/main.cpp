// perfbench: end-to-end and per-layer benchmark of the ganglia monitor.
//
//   perfbench --workload tree_xml|dashboard|membership --seed N
//             --seconds S --trace 0|1 [--parts K] [--smoke] [--trace-out PATH]
//
// Prints notes and checks as text, then one JSON line with every measured
// metric and the raw samples behind the percentile metrics; run.py pools
// the processes of a run and selects the names BENCHMARK.json lists for
// the requested mode.  `perfbench --probe` only times the calibration
// kernel.  Exits 1 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tree_xml|dashboard|membership --seed N "
               "--seconds S --trace 0|1 [--parts K] [--smoke] "
               "[--trace-out PATH]\n",
               argv0);
  return 1;
}

/// Median of three runs of the calibration kernel.
double calibrate() {
  double t[3];
  for (double& v : t) v = calibration_kernel_ms();
  std::sort(std::begin(t), std::end(t));
  return t[1];
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    // Host diagnostics only: run.py calls this before and after a run.
    std::printf("{\"calibration_ms\": %s}\n", json_number(calibrate()).c_str());
    return 0;
  }
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
      have_seconds = options.seconds > 0;
    } else if (arg == "--parts" && has_value) {
      options.parts = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      options.trace_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return usage(argv[0]);

  const bool tree_xml = options.workload == "tree_xml";
  const bool dashboard = options.workload == "dashboard";
  if (!tree_xml && !dashboard && options.workload != "membership") {
    return usage(argv[0]);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  const std::int64_t start = wall_ns();

  RunResult result = tree_xml || dashboard ? run_tree(options, dashboard)
                                           : run_membership(options);

  const double run_s = static_cast<double>(wall_ns() - start) * 1e-9;
  for (const std::string& note : result.notes) std::printf("note: %s\n", note.c_str());
  for (const std::string& failure : result.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed in %.2f s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), run_s);

  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}, \"samples\": {";
  first = true;
  for (const auto& [name, samples] : result.samples) {
    json += first ? "\"" : ", \"";
    first = false;
    json += name + "\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      json += (i ? ", " : "") + json_number(samples.values()[i]);
    }
    json += "]";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
