// The three perfbench workloads.  Each runs a fixed amount of work derived
// from --seconds (never a time box, so counts repeat exactly at a seed),
// checks the program's outputs, and fills a RunResult with what it
// measured; a traced run adds the per-layer metrics taken from spans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  /// This process runs 1/parts of the measured rounds; run.py starts
  /// `parts` processes, so one run samples several memory layouts.
  int parts = 1;
  bool trace = false;
  /// Tiny scale for the benchmark's own smoke test: few hosts, few
  /// members, few rounds.
  bool smoke = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_path;
};

/// The fig-2 tree: `delta` selects the dashboard workload (delta
/// federation, soft-state gmonds, an HTTP dashboard at the root), otherwise
/// tree_xml (legacy full-XML polls, values redrawn every report, no
/// readers).
RunResult run_tree(const Options& options, bool delta);

/// 128 gossip agents: join, steady window, one silent crash.
RunResult run_membership(const Options& options);

/// This process's share of a run's `total` measured rounds.
inline std::size_t share_of(const Options& options, int total) {
  const int parts = std::max(1, options.parts);
  return static_cast<std::size_t>((total + parts - 1) / parts);
}

}  // namespace perfbench
