// SIMD kernel layer + structure-exploiting solver fast paths.
//
// Two layers of measurement:
//
//   kernels   every rt::simd::Kernels entry at n in {12, 96, 4096} (the
//             serve RB count, the matmul row, a long vector), then the
//             composite matmul / matvec / FFT, each timed on the active
//             dispatch table and again under ForceScalarGuard -- the
//             intra-run vectorization gain.  A per-entry /simd record
//             carries speedup_vs against its /scalar twin.
//   solvers   the obs-bench ADMM / SDP workload (same Rng(7) draw, same
//             sizes): the box-QP in its default configuration, the SDP in
//             its default configuration and in the opt-in fast
//             configuration (structured KKT + warm-started thresholded PSD
//             projection + workspace reuse).
//
// When a previous harness JSON is reachable (RCR_BENCH_BASELINE, default
// BENCH_perf_obs.json), matching records gain "speedup_vs" against it; the
// headline sdp_admm/fast record is additionally compared against the
// sdp_admm/off baseline (or this run's own off measurement when no file is
// present) -- the number the >= 4x acceptance gate reads.  Writes
// BENCH_perf_simd.json.
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rcr/numerics/matrix.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/quadratic.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/rt/simd.hpp"
#include "rcr/signal/fft.hpp"

namespace {

using rcr::Vec;
using rcr::num::Matrix;
using rcr::num::Rng;
namespace simd = rcr::rt::simd;

// Kernel timings should price the arithmetic, not the dispatch telemetry.
class DisarmObs {
 public:
  DisarmObs()
      : metrics_(rcr::obs::metrics_enabled()),
        trace_(rcr::obs::trace_enabled()) {
    rcr::obs::set_metrics_enabled(false);
    rcr::obs::set_trace_enabled(false);
  }
  ~DisarmObs() {
    rcr::obs::set_metrics_enabled(metrics_);
    rcr::obs::set_trace_enabled(trace_);
  }

 private:
  bool metrics_;
  bool trace_;
};

volatile double g_sink = 0.0;

// Times each Kernels entry on n-element operands, active table vs scalar.
// One op is one kernel call; the timed closure repeats the call so a
// 12-element op is not lost in clock resolution, and the record is scaled
// back to per-call cost.  In-place kernels stay finite under repetition:
// axpy grows linearly, rotate_pair preserves the norm, and the butterfly's
// twiddle of -0.5 gives its 2x2 update unit-modulus eigenvalues.
void sweep_kernels(rcr::bench::Harness& h, std::size_t n, int reps) {
  using C = std::complex<double>;
  Rng rng(17 + n);
  const Vec a = rng.normal_vec(n);
  const Vec b = rng.normal_vec(n);
  const Vec w = rng.normal_vec(n);
  Vec out(n, 0.0);
  Vec x = rng.normal_vec(n);
  Vec y = rng.normal_vec(n);
  std::vector<C> lo(n), hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo[i] = {rng.normal(), rng.normal()};
    hi[i] = {rng.normal(), rng.normal()};
  }
  const std::vector<C> tw(n, C(-0.5, 0.0));

  using Call = std::function<void(const simd::Kernels&)>;
  const std::pair<const char*, Call> entries[] = {
      {"add", [&](const simd::Kernels& k) {
         k.add(a.data(), b.data(), out.data(), n);
       }},
      {"sub", [&](const simd::Kernels& k) {
         k.sub(a.data(), b.data(), out.data(), n);
       }},
      {"mul", [&](const simd::Kernels& k) {
         k.mul(a.data(), b.data(), out.data(), n);
       }},
      {"scale", [&](const simd::Kernels& k) {
         k.scale(a.data(), -1.75, out.data(), n);
       }},
      {"axpy", [&](const simd::Kernels& k) {
         k.axpy(1e-3, a.data(), out.data(), n);
       }},
      {"rotate_pair", [&](const simd::Kernels& k) {
         k.rotate_pair(x.data(), y.data(), 0.8, 0.6, n);
       }},
      {"dot_seq", [&](const simd::Kernels& k) {
         g_sink = k.dot_seq(0.0, a.data(), b.data(), n);
       }},
      {"absdot_seq", [&](const simd::Kernels& k) {
         g_sink = k.absdot_seq(0.0, a.data(), b.data(), n);
       }},
      {"choose_dot_seq", [&](const simd::Kernels& k) {
         g_sink = k.choose_dot_seq(0.0, w.data(), a.data(), b.data(), n);
       }},
      {"masked_dot_seq", [&](const simd::Kernels& k) {
         g_sink = k.masked_dot_seq(0.0, w.data(), a.data(), n, true);
       }},
      {"choose_mul", [&](const simd::Kernels& k) {
         k.choose_mul(w.data(), a.data(), b.data(), out.data(), n);
       }},
      {"butterfly", [&](const simd::Kernels& k) {
         k.butterfly(lo.data(), hi.data(), tw.data(), n);
       }},
  };

  const std::size_t calls = n >= 65536 ? 1 : 65536 / n;
  const std::string size = "n=" + std::to_string(n);
  const auto time_on = [&](const std::string& name,
                           const Call& call) -> rcr::bench::Record& {
    const simd::Kernels& k = simd::active();
    rcr::bench::Record& rec = h.run(name, size, reps, [&] {
      for (std::size_t c = 0; c < calls; ++c) call(k);
    });
    rec.ns_op /= static_cast<double>(calls);
    rec.allocs_op /= static_cast<double>(calls);
    return rec;
  };
  for (const auto& [name, call] : entries) {
    double scalar_ns = 0.0;
    {
      simd::ForceScalarGuard scalar;
      scalar_ns = time_on(std::string(name) + "/scalar", call).ns_op;
    }
    time_on(std::string(name) + "/simd", call).baseline_ns = scalar_ns;
  }
}

}  // namespace

int main() {
  const bool smoke = rcr::bench::smoke_mode();
  const int reps = smoke ? 3 : 12;
  std::printf("=== simd kernels (path=%s, threads=%zu%s) ===\n\n",
              simd::path_name(), rcr::rt::global_threads(),
              smoke ? ", smoke" : "");

  rcr::bench::Harness h("simd_kernels");
  const char* base_env = std::getenv("RCR_BENCH_BASELINE");
  const std::string base_path =
      base_env != nullptr ? base_env : "BENCH_perf_obs.json";
  if (h.set_baseline(base_path, base_path))
    std::printf("baseline: %s\n\n", base_path.c_str());

  DisarmObs off;
  Rng rng(7);

  // --- kernel layer: active table vs forced-scalar -----------------------
  for (const std::size_t n : {std::size_t{12}, std::size_t{96},
                              std::size_t{4096}})
    sweep_kernels(h, n, reps * 16);
  {
    const std::size_t n = smoke ? 48 : 96;
    Rng mrng(11);
    const Matrix ma = rcr::opt::random_psd(n, n, mrng);
    const Matrix mb = rcr::opt::random_psd(n, n, mrng);
    Matrix mc(n, n);
    Vec x = mrng.normal_vec(n);
    Vec y(n, 0.0);
    const std::string size = "n=" + std::to_string(n);

    const auto matmul = [&] { rcr::num::multiply_into(ma, mb, mc); };
    const auto matvec = [&] { rcr::num::matvec_into(ma, x, y); };
    h.run("matmul/simd", size, reps, matmul);
    h.run("matvec/simd", size, reps * 16, matvec);
    {
      simd::ForceScalarGuard scalar;
      h.run("matmul/scalar", size, reps, matmul);
      h.run("matvec/scalar", size, reps * 16, matvec);
    }
  }
  {
    const std::size_t n = smoke ? 1024 : 8192;
    Rng frng(13);
    rcr::sig::CVec sig(n);
    for (auto& v : sig) v = {frng.normal(), frng.normal()};
    rcr::sig::FftWorkspace fws;
    rcr::sig::CVec work;
    const std::string size = "n=" + std::to_string(n);

    const auto fft = [&] {
      work = sig;
      rcr::sig::fft_inplace(work, fws);
    };
    h.run("fft/simd", size, reps * 4, fft);
    {
      simd::ForceScalarGuard scalar;
      h.run("fft/scalar", size, reps * 4, fft);
    }
  }

  // --- solver layer: the obs-bench workload, default vs fast configs -----
  // Same generator stream as bench_obs_overhead (Rng(7), box-QP drawn
  // first) so the sdp_admm/off record here is directly comparable to the
  // pre-optimization baseline JSON.
  {
    const std::size_t n = smoke ? 24 : 64;
    const Matrix p = rcr::opt::random_psd(n, n, rng) + Matrix::identity(n);
    const Vec q = rng.normal_vec(n);
    const Vec lo(n, -1.0), hi(n, 1.0);
    const std::string size = "n=" + std::to_string(n);

    h.run("admm_boxqp/off", size, reps,
          [&] { rcr::opt::admm_box_qp(p, q, lo, hi); });
  }
  {
    const std::size_t n = smoke ? 6 : 12;
    rcr::opt::Sdp problem;
    problem.c = rcr::opt::random_psd(n, n, rng) - Matrix::identity(n);
    problem.a_eq.push_back(Matrix::identity(n));
    problem.b_eq.push_back(1.0);
    const std::string size = "n=" + std::to_string(n);
    rcr::opt::SdpOptions options;
    options.max_iterations = smoke ? 500 : 2000;

    const rcr::bench::Record& offrec =
        h.run("sdp_admm/off", size, reps,
              [&] { rcr::opt::solve_sdp(problem, options); });
    const double off_ns = offrec.ns_op;

    rcr::opt::SdpOptions fast = options;
    fast.exploit_structure = true;
    fast.warm_start_projection = true;
    fast.projection_rotation_threshold = 1e-9;
    rcr::opt::SdpWorkspace ws;
    bool converged = true;
    rcr::bench::Record& fastrec =
        h.run("sdp_admm/fast", size, reps, [&] {
          converged = rcr::opt::solve_sdp(problem, fast, ws).converged;
        });
    // The acceptance gate compares the combined fast path against the
    // pre-optimization default; fall back to this run's own off record
    // when no baseline file is attached.
    double gate_base = 0.0;
    for (const auto& e : rcr::bench::load_baseline(base_path))
      if (e.kernel == "sdp_admm/off" && e.size == size) gate_base = e.ns_op;
    fastrec.baseline_ns = gate_base > 0.0 ? gate_base : off_ns;

    std::printf("sdp_admm/fast %s: %.2fx vs baseline %.0f ns/op, "
                "%.1f allocs/op, converged=%d\n\n",
                size.c_str(), fastrec.speedup_vs(), fastrec.baseline_ns,
                fastrec.allocs_op, converged ? 1 : 0);
  }

  h.print_table();
  std::printf("\n%s\n", h.to_json().c_str());
  return h.write_json("BENCH_perf_simd.json") ? 0 : 1;
}
