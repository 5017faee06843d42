// Repository benchmark binary.
//
//   rcr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one human-readable line per metric (with sample counts and bases),
// then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (traced run; needs the allocation-counting build rcr_perfbench_traced).
// Exits 1 when the correctness gate fails, 2 on a usage or environment
// error (without printing a result).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "allocs.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

/// Environment knobs that change the measured program: timing is refused
/// while any of them is set, so every run measures the same code paths.
bool knob_set(std::string* which) {
  static const char* const kExact[] = {
      "RCR_FAULTS",    "RCR_TRACE",          "RCR_METRICS",     "RCR_SIMD",
      "RCR_FFT_CACHE", "RCR_LEARN_ARTIFACT", "RCR_BENCH_SMOKE",
  };
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry(*env);
    const std::string key = entry.substr(0, entry.find('='));
    bool hit = key.rfind("RCR_SCN_", 0) == 0;
    for (const char* k : kExact) hit = hit || key == k;
    if (hit) {
      *which = key;
      return true;
    }
  }
  return false;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rcr_perfbench: %s\nusage: rcr_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const std::string& n : perfbench::workload_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, unsigned long long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0' && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  unsigned long long seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, &seed);
      if (!have_seed) return usage("--seed needs a whole number");
    } else if (flag == "--seconds") {
      have_seconds = parse_u64(value, &seconds) && seconds >= 1;
      if (!have_seconds) return usage("--seconds needs a whole number >= 1");
    } else if (flag == "--trace") {
      if (!parse_u64(value, &trace) || trace > 1)
        return usage("--trace needs 0 or 1");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in --flag value pairs");
  const perfbench::WorkloadDef* def = perfbench::find_workload(workload);
  if (def == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace > 1)
    return usage("--seed, --seconds and --trace are required");
  std::string knob;
  if (knob_set(&knob)) {
    std::fprintf(stderr,
                 "rcr_perfbench: refusing to time with %s set; unset every "
                 "RCR_FAULTS/RCR_TRACE/RCR_METRICS/RCR_SIMD/RCR_FFT_CACHE/"
                 "RCR_SCN_*/RCR_LEARN_ARTIFACT/RCR_BENCH_SMOKE knob\n",
                 knob.c_str());
    return 2;
  }
  if (trace == 1 && !perfbench::allocs_counted()) {
    std::fprintf(stderr, "rcr_perfbench: --trace 1 needs the "
                         "rcr_perfbench_traced build\n");
    return 2;
  }

  perfbench::RunResult res;
  try {
    res = trace == 1 ? perfbench::run_per_layer(*def, seed,
                                                static_cast<double>(seconds))
                     : perfbench::run_end_to_end(*def, seed,
                                                 static_cast<double>(seconds));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcr_perfbench: %s: %s\n", def->name, e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %llu trace %llu\n", def->name,
              seed, seconds, trace);
  for (const perfbench::Metric& m : res.metrics) {
    if (m.applies)
      std::printf("  %-36s %16.6g %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    else
      std::printf("  %-36s %16s %-9s %s\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-36s %16.6g %-9s %llu failed of %llu attempted\n",
              "failed_ratio",
              res.attempted == 0 ? 0.0
                                 : static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted),
              "ratio", static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  for (const std::string& f : res.failures)
    std::printf("  FAILED: %s\n", f.c_str());

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", res.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + res.metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + res.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
