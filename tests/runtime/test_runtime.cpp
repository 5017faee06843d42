#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "rcr/obs/metrics.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::rt {
namespace {

TEST(ThreadPool, StartStopAndSize) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Destructor joins cleanly with no submitted work (end of scope).
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRejectsSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, WorkerThreadFlagVisibleInsideTasks) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  std::atomic<bool> seen{false};
  {
    ThreadPool pool(1);
    pool.submit([&seen] { seen = ThreadPool::on_worker_thread(); });
  }
  EXPECT_TRUE(seen.load());
}

TEST(DefaultThreadCount, RespectsEnvOverride) {
  ::setenv("RCR_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("RCR_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1u);
  ::unsetenv("RCR_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_threads(threads);
    std::vector<int> hits(1000, 0);
    parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  int calls = 0;
  parallel_for(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, 64, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesWorkerExceptions) {
  set_global_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::size_t b, std::size_t) {
                     if (b == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives the exception and keeps doing useful work.
  std::atomic<int> count{0};
  parallel_for(0, 64, 1,
               [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, NestedCallsRunInline) {
  set_global_threads(4);
  std::atomic<int> inner_total{0};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Nested region: must complete inline on the worker without deadlock.
    parallel_for(0, 10, 1, [&](std::size_t b, std::size_t e) {
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelReduce, DeterministicAcrossThreadCounts) {
  // Chunked float summation: partials depend only on the grain, so the
  // result is bit-identical for 1, 2, and 8 threads.
  std::vector<double> data(10007);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1e-3 * static_cast<double>(i % 97) + 1e-9 * static_cast<double>(i);

  auto chunk_sum = [&](std::size_t b, std::size_t e) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += data[i];
    return acc;
  };
  auto combine = [](double a, double b) { return a + b; };

  set_global_threads(1);
  const double r1 =
      parallel_reduce(0, data.size(), 64, 0.0, chunk_sum, combine);
  set_global_threads(2);
  const double r2 =
      parallel_reduce(0, data.size(), 64, 0.0, chunk_sum, combine);
  set_global_threads(8);
  const double r8 =
      parallel_reduce(0, data.size(), 64, 0.0, chunk_sum, combine);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);

  // Forced-serial path uses the same chunk decomposition.
  ForceSerialGuard serial;
  const double rs =
      parallel_reduce(0, data.size(), 64, 0.0, chunk_sum, combine);
  EXPECT_EQ(r1, rs);
}

TEST(ForceSerialGuard, SuppressesParallelDispatchOnThisThread) {
  set_global_threads(8);
  EXPECT_FALSE(force_serial_active());
  {
    ForceSerialGuard guard;
    EXPECT_TRUE(force_serial_active());
    parallel_for(0, 1000, 1, [&](std::size_t, std::size_t) {
      EXPECT_FALSE(ThreadPool::on_worker_thread());
    });
  }
  EXPECT_FALSE(force_serial_active());
}

TEST(ForceFanOutGuard, IsThreadLocalAndNestable) {
  EXPECT_FALSE(force_fan_out_active());
  {
    ForceFanOutGuard outer;
    {
      ForceFanOutGuard inner;
      EXPECT_TRUE(force_fan_out_active());
    }
    EXPECT_TRUE(force_fan_out_active());
    std::atomic<bool> seen_on_worker{true};
    {
      ThreadPool pool(1);
      pool.submit([&seen_on_worker] {
        seen_on_worker = force_fan_out_active();
      });
      // The destructor drains the queue before joining.
    }
    EXPECT_FALSE(seen_on_worker.load());
  }
  EXPECT_FALSE(force_fan_out_active());
}

TEST(DispatchEstimate, ZeroWorkerPoolPaysNothing) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.dispatch_us(), 0.0);
}

TEST(DispatchEstimate, WorkerThreadNeverSeedsItsOwnPool) {
  // Seeding waits on a worker; a worker asking its own 1-worker pool would
  // wait on itself.  It reads the unseeded estimate as +infinity instead.
  std::atomic<double> seen{0.0};
  {
    ThreadPool pool(1);
    pool.submit([&seen, &pool] { seen = pool.dispatch_us(); });
  }
  EXPECT_TRUE(std::isinf(seen.load()));
}

TEST(DispatchEstimate, LowerBoundsOnlyRaiseTheEstimate) {
  ThreadPool pool(1);
  const double seeded = pool.dispatch_us();
  ASSERT_TRUE(std::isfinite(seeded));
  pool.record_dispatch(0.0, /*lower_bound=*/true);
  EXPECT_EQ(pool.dispatch_us(), seeded);
  pool.record_dispatch(seeded + 80.0, /*lower_bound=*/true);
  EXPECT_GT(pool.dispatch_us(), seeded);
}

TEST(DispatchEstimate, DescheduledDispatchesMoveItLittle) {
  // A running median: ten dispatches that cost 1000x the seed (a helper or
  // caller that lost its core) move the estimate by less than 2x, so they
  // cannot hold a caller inline.
  ThreadPool pool(1);
  const double seeded = pool.dispatch_us();
  ASSERT_TRUE(std::isfinite(seeded));
  for (int i = 0; i < 10; ++i)
    pool.record_dispatch(1000.0 * seeded, /*lower_bound=*/false);
  const double raised = pool.dispatch_us();
  EXPECT_GT(raised, seeded);
  EXPECT_LT(raised, 2.0 * seeded);
}

TEST(DispatchEstimate, SeededOnFirstReadAndResetBySetGlobalThreads) {
  set_global_threads(4);
  const double seeded = global_pool().dispatch_us();
  EXPECT_TRUE(std::isfinite(seeded));
  EXPECT_GT(seeded, 0.0);

  // Each fan-out folds one measured round trip into the estimate and the
  // rcr.runtime.dispatch_us histogram.
  obs::ScopedMetrics metrics;
  std::vector<int> hits(64, 0);
  for (int rep = 0; rep < 3; ++rep)
    parallel_for(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
  const double updated = global_pool().dispatch_us();
  EXPECT_TRUE(std::isfinite(updated));
  EXPECT_GT(updated, 0.0);
  std::uint64_t observed = 0;
  for (const obs::MetricSample& s : obs::metrics_snapshot())
    if (s.name == "rcr.runtime.dispatch_us") observed = s.count;
  EXPECT_EQ(observed, 3u);

  // A rebuilt pool starts from its own measurement: no workers, no cost.
  set_global_threads(1);
  EXPECT_EQ(global_pool().dispatch_us(), 0.0);
  set_global_threads(4);
  EXPECT_TRUE(std::isfinite(global_pool().dispatch_us()));
  EXPECT_GT(global_pool().dispatch_us(), 0.0);
}

TEST(GlobalPool, SetThreadsResizes) {
  set_global_threads(2);
  EXPECT_EQ(global_threads(), 2u);
  set_global_threads(1);
  EXPECT_EQ(global_threads(), 1u);
  set_global_threads(8);
  EXPECT_EQ(global_threads(), 8u);
}

}  // namespace
}  // namespace rcr::rt
