// Parallel leg of the serial-vs-parallel equivalence tests.
//
// A serve tick runs inline unless its measured work pays for a dispatch
// (serve::tick_grain), and the small fixtures of these tests never do, so a
// leg that merely runs on the default pool would execute exactly like the
// ForceSerialGuard leg and compare nothing.  FanOutLeg forces grain 1 on a
// pool with at least one worker and arms the metrics registry, so the leg
// can check through rcr.runtime.tasks that it really dispatched.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rcr/obs/metrics.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::test_support {

class FanOutLeg {
 public:
  FanOutLeg() : prior_threads_(rt::global_threads()) {
    if (prior_threads_ < 2) rt::set_global_threads(2);
  }
  ~FanOutLeg() {
    if (prior_threads_ < 2) rt::set_global_threads(prior_threads_);
  }
  FanOutLeg(const FanOutLeg&) = delete;
  FanOutLeg& operator=(const FanOutLeg&) = delete;

  /// Pool tasks submitted since the leg began.
  static std::uint64_t tasks() {
    for (const obs::MetricSample& s : obs::metrics_snapshot())
      if (s.name == "rcr.runtime.tasks")
        return static_cast<std::uint64_t>(s.value);
    return 0;
  }

 private:
  std::size_t prior_threads_;
  obs::ScopedMetrics metrics_;
  rt::ForceFanOutGuard fan_out_;
};

}  // namespace rcr::test_support
