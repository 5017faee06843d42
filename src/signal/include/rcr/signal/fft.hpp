// FFT family: the six functions Sec. IV of the paper audits across ML
// libraries (FFT, IFFT, RFFT, IRFFT, STFT, ISTFT).  This header provides the
// reference (correct) transforms; deliberately defective library simulations
// live in variants.hpp.
//
// Conventions (matching NumPy/SciPy):
//   fft:   X[m] = sum_l x[l] e^{-2*pi*i*m*l/N}        (no scaling)
//   ifft:  x[l] = (1/N) sum_m X[m] e^{+2*pi*i*m*l/N}
//   rfft:  first N/2+1 bins of fft of a real signal
//   irfft: inverse of rfft given the output length N
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "rcr/numerics/vector_ops.hpp"

namespace rcr::sig {

/// Complex sample buffer.
using CVec = std::vector<std::complex<double>>;

/// Forward DFT of arbitrary length (radix-2 when N is a power of two,
/// Bluestein chirp-z otherwise).  O(N log N).
CVec fft(const CVec& x);

/// Inverse DFT with 1/N normalization.
CVec ifft(const CVec& x);

/// Reusable scratch for the in-place transforms.  Holds the Bluestein
/// convolution buffer; after the first transform of a given size, repeated
/// in-place transforms through the same workspace perform zero heap
/// allocations.  A workspace is not thread-safe -- use one per thread
/// (pool workers typically hold one in thread_local storage).
struct FftWorkspace {
  CVec conv;  ///< Power-of-two Bluestein convolution buffer.
};

/// In-place forward DFT of `x` (any length), using `ws` for scratch.
/// Bit-identical to fft(x); allocation-free once `ws` and the twiddle-table
/// caches are warm.
void fft_inplace(CVec& x, FftWorkspace& ws);

/// In-place inverse DFT with 1/N normalization.  Bit-identical to ifft(x).
void ifft_inplace(CVec& x, FftWorkspace& ws);

/// Capacity of each per-size FFT table cache (radix-2 twiddles, Bluestein
/// chirps): 64 sizes.  Least-recently-used sizes are evicted beyond the
/// cap, bounding cache memory during sweeps over many transform sizes.
std::size_t fft_table_cache_capacity();

/// Forward DFT of a real signal; returns bins 0..N/2 (length N/2+1).
CVec rfft(const Vec& x);

/// Inverse of rfft; `n` is the output length (must satisfy
/// spectrum.size() == n/2 + 1, otherwise throws std::invalid_argument).
Vec irfft(const CVec& spectrum, std::size_t n);

/// Direct O(N^2) DFT; oracle for testing the fast paths.
CVec dft_reference(const CVec& x);

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Convert a real vector to complex.
CVec to_complex(const Vec& x);

/// Real parts of a complex vector.
Vec real_part(const CVec& x);

/// |x_i| for every sample.
Vec magnitude(const CVec& x);

/// Max_i |a_i - b_i| between complex vectors (inf when sizes differ).
double max_abs_diff(const CVec& a, const CVec& b);

}  // namespace rcr::sig
