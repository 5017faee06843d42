// The learned warm-start predictor: problem parameters -> (z, u).
//
// Pipeline (all O(K n), allocation-free at inference):
//
//   1. analytic seed: the unconstrained QP minimizer d_unc via
//      Sherman-Morrison (qp.hpp);
//   2. per-RB MLP correction: a small shared-weight network scores each RB
//      from normalized local features + a few global aggregates, and emits a
//      tanh-bounded correction on the p0 scale (shared weights make the
//      predictor independent of n, so one artifact serves every cell size);
//   3. box projection: z0 = clamp(d_unc + p0 * correction) -- feasible by
//      construction, NaN-total (non-finite network output degrades to the
//      box midpoint, never escapes);
//   4. K unrolled ADMM steps (unrolled.hpp) refine (z0, 0) into a
//      primal/dual pair, rescaled to the consumer's penalty.
//
// Inference reads only const flat weight structs and writes caller storage:
// it is a pure function of (problem, weights), safe to call concurrently
// and bit-exact across RCR_THREADS.  Training-side conversion to/from an
// rcr::nn::Sequential lives in train.hpp; this header stays
// dependency-light.
#pragma once

#include <cstdint>

#include "rcr/learn/qp.hpp"
#include "rcr/learn/unrolled.hpp"

namespace rcr::learn {

/// Per-RB feature count consumed by the MLP (see fill_features).
inline constexpr std::size_t kFeatures = 7;

/// Hidden-width ceiling: inference keeps activations on the stack.
inline constexpr std::size_t kMaxHidden = 64;

/// Flat weights of the shared per-RB MLP:
///   features -> Dense(hidden) -> ReLU -> Dense(hidden) -> ReLU
///            -> Dense(1) -> tanh.
/// Row-major out x in blocks, matching nn::Dense's layout so the trainer
/// can copy directly through ParamRef.
struct MlpWeights {
  std::size_t in = kFeatures;
  std::size_t hidden = 0;
  Vec w1, b1;  ///< hidden x in, hidden.
  Vec w2, b2;  ///< hidden x hidden, hidden.
  Vec w3, b3;  ///< 1 x hidden, 1.

  /// Structural sanity: sizes consistent, hidden in (0, kMaxHidden].
  bool shape_ok() const;
};

/// The complete learned head: MLP + unrolled-ADMM refinement parameters.
struct WarmStartPredictor {
  std::uint32_t version = 1;
  MlpWeights mlp;
  UnrolledParams unrolled;

  bool shape_ok() const;
};

/// He-uniform random initialization (tests and training start points).
/// The unrolled head starts as `steps` plain ADMM iterations at `rho`.
WarmStartPredictor random_predictor(std::size_t hidden, std::size_t steps,
                                    double rho, std::uint64_t seed);

/// Zero-MLP predictor: correction identically zero, so the primal seed is
/// the projected analytic minimizer.  The do-no-harm baseline.
WarmStartPredictor zero_predictor(std::size_t hidden, std::size_t steps,
                                  double rho);

/// Write the kFeatures inputs for RB `i` into `f`.  `inv_scale` caches the
/// problem-level normalizers (compute once per cell via feature_scales).
struct FeatureScales {
  double inv_curv = 0.0;   ///< 1 / max(max_curv, fallback 1).
  double inv_slope = 0.0;  ///< 1 / sqrt(max_curv * 1/ln2) slope scale.
  double inv_p0 = 0.0;
  double n_squash = 0.0;   ///< 1 / (1 + n / 64).
  double penalty = 0.0;    ///< lambda * inv_curv (= budget_penalty).
  double mean_dunc = 0.0;  ///< mean of d_unc / p0, clamped.
};
FeatureScales feature_scales(const PowerQp& qp, const double* d_unc);
void fill_features(const PowerQp& qp, const FeatureScales& s,
                   const double* d_unc, std::size_t i, double* f);

/// MLP forward for one RB's feature vector (stack-buffered, const, pure).
double mlp_forward(const MlpWeights& w, const double* f);

/// Predict a warm start for `qp`: writes primal z and scaled dual u (each
/// qp.n long) consistent with consumer penalty `rho_out`.  `scratch` must
/// hold >= 2 * qp.n doubles.  Pure function of (qp, predictor); the result
/// is always box-feasible.  Throws std::invalid_argument on a
/// shape-invalid predictor (callers validate artifacts before arming).
void predict_warm_start(const PowerQp& qp, const WarmStartPredictor& p,
                        double rho_out, double* z, double* u,
                        double* scratch);

}  // namespace rcr::learn
