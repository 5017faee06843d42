#include "rcr/signal/fft.hpp"

#include "rcr/obs/obs.hpp"
#include "rcr/rt/simd.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <shared_mutex>
#include <stdexcept>
#include <utility>

namespace rcr::sig {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Bounded, reader-friendly per-size table cache.
//
// Hot lookups take a shared lock and bump an approximate-LRU stamp with a
// relaxed atomic store, so concurrent STFT workers re-reading the same size
// never serialize.  On a miss the caller generates the table *outside* any
// lock (generation of a new size used to happen while holding a global
// mutex, stalling every worker on first touch), then inserts under the
// exclusive lock with a re-check: if another thread won the race, its table
// is reused and ours is discarded.  The cache holds at most
// fft_table_cache_capacity() entries; the least-recently-stamped size is
// evicted first.  Entries are shared_ptrs, so an evicted table stays alive
// for any transform still using it.
template <typename Key, typename Value>
class TableCache {
 public:
  std::shared_ptr<const Value> find(const Key& key) {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    it->second.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed),
                               std::memory_order_relaxed);
    return it->second.value;
  }

  std::shared_ptr<const Value> insert(const Key& key,
                                      std::shared_ptr<const Value> value,
                                      std::size_t capacity) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.last_used.store(
          clock_.fetch_add(1, std::memory_order_relaxed),
          std::memory_order_relaxed);
      return it->second.value;  // lost the generation race; reuse theirs
    }
    while (map_.size() >= capacity && !map_.empty()) {
      auto victim = map_.begin();
      for (auto e = map_.begin(); e != map_.end(); ++e)
        if (e->second.last_used.load(std::memory_order_relaxed) <
            victim->second.last_used.load(std::memory_order_relaxed))
          victim = e;
      map_.erase(victim);
    }
    map_.try_emplace(key, std::move(value),
                     clock_.fetch_add(1, std::memory_order_relaxed));
    return map_.find(key)->second.value;
  }

  std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return map_.size();
  }

 private:
  struct Entry {
    Entry(std::shared_ptr<const Value> v, std::uint64_t stamp)
        : value(std::move(v)), last_used(stamp) {}
    std::shared_ptr<const Value> value;
    std::atomic<std::uint64_t> last_used;
  };

  mutable std::shared_mutex mutex_;
  std::map<Key, Entry> map_;
  std::atomic<std::uint64_t> clock_{0};
};

// Per-size twiddle tables for the radix-2 transform.  STFT re-runs the same
// transform size hundreds of times per spectrogram; recomputing the stage
// twiddles with trig calls on every transform dominated small-FFT cost.
// The tables are generated with the *same* w *= wlen recurrence the inline
// loop used, so cached transforms are bit-identical to the uncached ones.
// Inverse twiddles are exact conjugates of the forward ones (conjugation
// commutes with IEEE complex multiplication), so one generation serves both
// directions.
struct Radix2Tables {
  // forward[s][k] = wlen^k for stage length len = 2^(s+1), k < len/2.
  std::vector<CVec> forward;
  std::vector<CVec> inverse;
};

std::shared_ptr<const Radix2Tables> radix2_tables(std::size_t n) {
  static TableCache<std::size_t, Radix2Tables> cache;
  if (auto hit = cache.find(n)) {
    obs::counter_add("rcr.fft.cache.hits");
    return hit;
  }
  obs::counter_add("rcr.fft.cache.misses");

  // Generate outside any lock; concurrent first-touchers may duplicate the
  // work, but nobody blocks behind the trig loops.
  auto tables = std::make_shared<Radix2Tables>();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -kTwoPi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    CVec fwd(len / 2);
    CVec inv(len / 2);
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      fwd[k] = w;
      inv[k] = std::conj(w);
      w *= wlen;
    }
    tables->forward.push_back(std::move(fwd));
    tables->inverse.push_back(std::move(inv));
  }
  return cache.insert(n, std::move(tables), fft_table_cache_capacity());
}

// In-place iterative radix-2 Cooley-Tukey; requires power-of-two size.
// The butterfly rides the SIMD kernel layer: the lo/hi halves of each block
// are contiguous, so one kernel call covers a whole stage block.  The
// vector path multiplies with the same naive complex formula libstdc++ uses
// on finite data, so the transform is bit-identical across paths (signal
// data is finite by the waveform contract; the scalar path keeps full
// std::complex semantics regardless).
void fft_radix2(CVec& a, bool inverse) {
  const std::size_t n = a.size();
  const std::shared_ptr<const Radix2Tables> tables = radix2_tables(n);
  const auto& K = rt::simd::active();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
    const CVec& tw =
        inverse ? tables->inverse[stage] : tables->forward[stage];
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len)
      K.butterfly(a.data() + i, a.data() + i + half, tw.data(), half);
  }
}

// Cached Bluestein state for one (size, direction): the chirp sequence and
// the FFT of the chirp kernel `b`, which is input-independent and was
// previously recomputed (two trig loops plus a full FFT) on every call.
struct BluesteinTables {
  std::size_t m = 0;  ///< Power-of-two convolution length.
  CVec chirp;         ///< chirp[k], length n.
  CVec fft_b;         ///< FFT of the padded conj-chirp kernel, length m.
};

std::shared_ptr<const BluesteinTables> bluestein_tables(std::size_t n,
                                                        bool inverse) {
  static TableCache<std::pair<std::size_t, bool>, BluesteinTables> cache;
  if (auto hit = cache.find({n, inverse})) {
    obs::counter_add("rcr.fft.cache.hits");
    return hit;
  }
  obs::counter_add("rcr.fft.cache.misses");

  auto tables = std::make_shared<BluesteinTables>();
  const double sign = inverse ? 1.0 : -1.0;
  tables->chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Reduce k^2 mod 2n before the trig call to keep the argument small.
    const auto k2 = static_cast<double>(
        (static_cast<unsigned long long>(k) * k) % (2ull * n));
    const double ang = sign * std::numbers::pi * k2 / static_cast<double>(n);
    tables->chirp[k] = {std::cos(ang), std::sin(ang)};
  }
  tables->m = next_power_of_two(2 * n - 1);
  CVec b(tables->m, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = std::conj(tables->chirp[k]);
    if (k != 0) b[tables->m - k] = std::conj(tables->chirp[k]);
  }
  fft_radix2(b, false);
  tables->fft_b = std::move(b);
  return cache.insert(std::make_pair(n, inverse), std::move(tables),
                      fft_table_cache_capacity());
}

// Bluestein chirp-z transform: arbitrary-N DFT via a power-of-two
// convolution.  Handles the non-power-of-two frame sizes STFT produces.
// Operates on x in place, staging the convolution in ws.conv, which is
// reused across calls (assign never shrinks capacity, so repeated
// transforms of one size are allocation-free).
void fft_bluestein_inplace(CVec& x, bool inverse, FftWorkspace& ws) {
  const std::size_t n = x.size();
  const std::shared_ptr<const BluesteinTables> t = bluestein_tables(n, inverse);
  const CVec& chirp = t->chirp;
  const std::size_t m = t->m;

  CVec& a = ws.conv;
  a.assign(m, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  fft_radix2(a, false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= t->fft_b[k];
  fft_radix2(a, true);
  for (auto& v : a) v /= static_cast<double>(m);

  for (std::size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k];
}

void transform_inplace(CVec& y, bool inverse, FftWorkspace& ws) {
  if (y.empty()) return;
  if (is_power_of_two(y.size())) {
    fft_radix2(y, inverse);
  } else {
    fft_bluestein_inplace(y, inverse, ws);
  }
  if (inverse) {
    for (auto& v : y) v /= static_cast<double>(y.size());
  }
}

// Workspace backing the copying fft()/ifft() entry points, so even the
// allocating API reuses its Bluestein buffers within a thread.
FftWorkspace& tls_fft_workspace() {
  thread_local FftWorkspace ws;
  return ws;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

CVec fft(const CVec& x) {
  CVec y = x;
  transform_inplace(y, false, tls_fft_workspace());
  return y;
}

CVec ifft(const CVec& x) {
  CVec y = x;
  transform_inplace(y, true, tls_fft_workspace());
  return y;
}

void fft_inplace(CVec& x, FftWorkspace& ws) { transform_inplace(x, false, ws); }

void ifft_inplace(CVec& x, FftWorkspace& ws) { transform_inplace(x, true, ws); }

std::size_t fft_table_cache_capacity() { return 64; }

CVec rfft(const Vec& x) {
  const CVec full = fft(to_complex(x));
  const std::size_t bins = x.size() / 2 + 1;
  return CVec(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(bins));
}

Vec irfft(const CVec& spectrum, std::size_t n) {
  if (n == 0) throw std::invalid_argument("irfft: zero output length");
  if (spectrum.size() != n / 2 + 1)
    throw std::invalid_argument(
        "irfft: spectrum length must equal n/2 + 1 for output length n");
  // Rebuild the full Hermitian spectrum, then a plain inverse DFT.
  CVec full(n);
  for (std::size_t k = 0; k < spectrum.size(); ++k) full[k] = spectrum[k];
  for (std::size_t k = spectrum.size(); k < n; ++k)
    full[k] = std::conj(spectrum[n - k]);
  return real_part(ifft(full));
}

CVec dft_reference(const CVec& x) {
  const std::size_t n = x.size();
  CVec out(n, {0.0, 0.0});
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t l = 0; l < n; ++l) {
      const double ang = -kTwoPi * static_cast<double>(m) *
                         static_cast<double>(l) / static_cast<double>(n);
      out[m] += x[l] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
  }
  return out;
}

CVec to_complex(const Vec& x) {
  CVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = {x[i], 0.0};
  return out;
}

Vec real_part(const CVec& x) {
  Vec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i].real();
  return out;
}

Vec magnitude(const CVec& x) {
  Vec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::abs(x[i]);
  return out;
}

double max_abs_diff(const CVec& a, const CVec& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace rcr::sig
