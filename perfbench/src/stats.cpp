#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0) return 0;
  // The small epsilon keeps p * n that is an exact integer in real
  // arithmetic (e.g. 99% of 1000) from rounding up a rank.
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

std::size_t samples_beyond(double p, std::size_t n) {
  return n - nearest_rank(p, n);
}

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = nearest_rank(p, out.n);
  out.p = p;
  out.value = samples[rank - 1];
  out.beyond = out.n - rank;
  return out;
}

Percentile tail_percentile(std::vector<double> samples, double cap,
                           std::size_t min_beyond) {
  const std::size_t n = samples.size();
  for (double p = std::floor(cap); p >= 50.0; p -= 1.0)
    if (samples_beyond(p, n) >= min_beyond)
      return percentile(std::move(samples), p);
  Percentile none;
  none.n = n;
  return none;
}

}  // namespace perfbench
