// Sample statistics for the benchmark: medians and nearest-rank percentiles
// that always say how many samples they rest on.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
double median(std::vector<double> samples);

/// Nearest-rank rank of percentile `p` (0 < p <= 100) among `n` samples:
/// ceil(p / 100 * n), clamped to [1, n].  The percentile is the sample at
/// this 1-based rank of the ascending order.
std::size_t nearest_rank(double p, std::size_t n);

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
std::size_t samples_beyond(double p, std::size_t n);

/// A percentile together with the sample count it was taken from.
struct Percentile {
  double p = 0.0;          ///< Percentile actually reported (0 = none).
  double value = 0.0;      ///< Sample value at that percentile.
  std::size_t n = 0;       ///< Samples the percentile was taken from.
  std::size_t beyond = 0;  ///< Samples strictly beyond it.
};

/// Nearest-rank percentile `p` of `samples`.
Percentile percentile(std::vector<double> samples, double p);

/// Tail percentile: the highest whole percentile <= `cap` that still has at
/// least `min_beyond` samples beyond it, so the tail rests on more than one
/// or two outliers.  With too few samples for any percentile >= 50 the
/// result has p = 0.
Percentile tail_percentile(std::vector<double> samples, double cap = 99.0,
                           std::size_t min_beyond = 10);

}  // namespace perfbench
