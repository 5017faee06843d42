// FFT twiddle/chirp table cache: concurrent first-touch safety, LRU
// eviction correctness, the capacity accessor, and the
// allocation-free warm path of the in-place transforms.
#include <gtest/gtest.h>

#include <complex>
#include <thread>
#include <vector>

#include "rcr/rt/alloc_probe.hpp"
#include "rcr/signal/fft.hpp"

namespace sig = rcr::sig;
using sig::CVec;

namespace {

CVec test_signal(std::size_t n, unsigned seed) {
  CVec x(n);
  // Cheap deterministic pseudo-noise; the cache logic under test is
  // insensitive to the distribution.
  std::uint64_t state = 0x9e3779b97f4a7c15ull + seed;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double re = static_cast<double>(state >> 40) / 16777216.0 - 0.5;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double im = static_cast<double>(state >> 40) / 16777216.0 - 0.5;
    x[i] = {re, im};
  }
  return x;
}

}  // namespace

TEST(FftCache, CapacityIsPositiveAndStable) {
  const std::size_t cap = sig::fft_table_cache_capacity();
  EXPECT_GE(cap, 1u);
  EXPECT_EQ(cap, sig::fft_table_cache_capacity());
}

TEST(FftCache, ConcurrentFirstTouchProducesCorrectTables) {
  // Several threads race to first-touch the *same* fresh sizes (power-of-two
  // and Bluestein); whichever generation wins the insert, every thread must
  // read back a table set that yields the exact DFT.  Run under TSan in CI.
  const std::vector<std::size_t> sizes = {193, 256, 137, 128, 101, 64};
  std::vector<std::vector<CVec>> results(6);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      std::vector<CVec> mine;
      for (std::size_t n : sizes) mine.push_back(sig::fft(test_signal(n, 3)));
      results[t] = std::move(mine);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const CVec reference = sig::dft_reference(test_signal(sizes[s], 3));
    for (unsigned t = 0; t < 6; ++t) {
      ASSERT_EQ(results[t][s].size(), sizes[s]);
      EXPECT_LT(sig::max_abs_diff(results[t][s], reference),
                1e-8 * static_cast<double>(sizes[s]))
          << "size " << sizes[s] << " thread " << t;
      // All threads see identical bits regardless of who built the tables.
      EXPECT_EQ(sig::max_abs_diff(results[t][s], results[0][s]), 0.0);
    }
  }
}

TEST(FftCache, EvictedSizesRegenerateIdentically) {
  // Sweep more distinct sizes than the cache holds, then return to the
  // first size: its tables were evicted and must regenerate to the same
  // bits (table generation is deterministic).
  const std::size_t first = 21;
  const CVec x = test_signal(first, 7);
  const CVec before = sig::fft(x);

  const std::size_t cap = sig::fft_table_cache_capacity();
  for (std::size_t k = 0; k < cap + 8; ++k) {
    const std::size_t n = 23 + 2 * k;  // odd: all Bluestein
    sig::fft(test_signal(n, 1));
  }

  const CVec after = sig::fft(x);
  EXPECT_EQ(sig::max_abs_diff(before, after), 0.0);
}

TEST(FftCache, InplaceTransformIsAllocationFreeWarm) {
  sig::FftWorkspace ws;
  CVec pow2 = test_signal(128, 2);
  CVec odd = test_signal(84, 2);
  CVec buf;

  // Warm both code paths (radix-2 and Bluestein), the inverse tables
  // (separate cache entries), and the workspace.
  buf = pow2;
  sig::fft_inplace(buf, ws);
  buf = odd;
  sig::fft_inplace(buf, ws);
  sig::ifft_inplace(buf, ws);

  const rcr::rt::AllocDelta delta;
  for (int r = 0; r < 10; ++r) {
    buf.assign(pow2.begin(), pow2.end());
    sig::fft_inplace(buf, ws);
    buf.assign(odd.begin(), odd.end());
    sig::fft_inplace(buf, ws);
    sig::ifft_inplace(buf, ws);
  }
  EXPECT_EQ(delta.delta(), 0u);
}

TEST(FftCache, InplaceMatchesAllocatingTransform) {
  sig::FftWorkspace ws;
  for (std::size_t n : {1u, 2u, 7u, 16u, 21u, 64u, 100u}) {
    const CVec x = test_signal(n, 11);
    const CVec expect_f = sig::fft(x);
    const CVec expect_i = sig::ifft(x);
    CVec buf = x;
    sig::fft_inplace(buf, ws);
    EXPECT_EQ(sig::max_abs_diff(buf, expect_f), 0.0) << "fft n=" << n;
    buf = x;
    sig::ifft_inplace(buf, ws);
    EXPECT_EQ(sig::max_abs_diff(buf, expect_i), 0.0) << "ifft n=" << n;
  }
}
