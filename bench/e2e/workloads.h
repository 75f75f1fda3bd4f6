// The four cadet_e2e workloads. Each runs repetitions of one fixed,
// seed-generated input until its time budget is spent and reports medians
// over the repetitions, so a faster program runs more repetitions of the
// same work instead of different work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cadet::e2e {

struct Options {
  std::uint64_t seed = 42;
  /// Wall-time budget for one workload's repetitions (set-up included).
  double seconds = 15.0;
  /// ~1/50 of every input, one repetition each way: the ctest smoke run.
  bool smoke = false;
  /// Alternate untraced and traced repetitions; fill Report::layers.
  bool traced = false;
  /// Where a traced run writes spans.jsonl and stacks.folded ("" = skip).
  std::string trace_dir;
  /// Worker threads for the sharded world, caller included.
  unsigned threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  /// End-to-end metrics, always from untraced repetitions. peak_rss_mb is
  /// added by the parent from the workload child's rusage.
  std::vector<Metric> metrics;
  /// Per-layer metrics from the traced repetitions (traced runs only).
  std::vector<Metric> layers;
  /// Correctness gates that failed; empty means every output checked out.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< ops issued, over all repetitions
  std::uint64_t failed = 0;     ///< requests not delivered, over all reps
  std::uint64_t reps = 0;
  std::uint64_t traced_reps = 0;
  std::uint64_t latency_samples = 0;  ///< behind each latency percentile
};

struct Workload {
  const char* name;
  const char* why;
  Report (*run)(const Options&);
};

const std::vector<Workload>& workloads();

}  // namespace cadet::e2e
