// The benchmark's workloads and the runs that measure them (README.md has
// the rationale for each workload and the metric -> layer table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcr/serve/workload.hpp"

namespace perfbench {

/// One reported number.  `applies` is false for a per-layer metric that has
/// no meaning on the workload; it is still emitted (as 0) so every run
/// reports the same metric set.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample counts, bases, percentile actually used.
  bool applies = true;
};

/// What one invocation measured and checked.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure messages.

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void not_applicable(const std::string& name, const std::string& unit);
  void fail(std::uint64_t count, const std::string& message);
};

enum class Kind { kServe, kFleet };

struct WorkloadDef {
  const char* name;
  Kind kind;
  std::size_t pool;  ///< Pool size, capped at the hardware thread count.
  rcr::serve::WorkloadConfig serve;  ///< kServe only; seed set per run.
  std::size_t seq_ticks = 0;    ///< kServe: ticks per timed repeat.
  std::size_t trace_ticks = 0;  ///< kServe: ticks per traced-mode window.
};

/// The workload named `name`, or nullptr.
const WorkloadDef* find_workload(const std::string& name);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Pool size actually used for a requested size: at most the hardware
/// thread count, at least 1.
std::size_t pool_size(std::size_t requested);

/// Untraced run: every end-to-end metric.
RunResult run_end_to_end(const WorkloadDef& w, std::uint64_t seed,
                         double seconds);

/// Traced run: every per-layer metric.  Needs the allocation-counting build.
RunResult run_per_layer(const WorkloadDef& w, std::uint64_t seed,
                        double seconds);

}  // namespace perfbench
