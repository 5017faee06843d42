#include "rcr/learn/predictor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "rcr/learn/project.hpp"
#include "rcr/numerics/rng.hpp"

namespace rcr::learn {

bool MlpWeights::shape_ok() const {
  if (in != kFeatures) return false;
  if (hidden == 0 || hidden > kMaxHidden) return false;
  return w1.size() == hidden * in && b1.size() == hidden &&
         w2.size() == hidden * hidden && b2.size() == hidden &&
         w3.size() == hidden && b3.size() == 1;
}

bool WarmStartPredictor::shape_ok() const {
  return version >= 1 && mlp.shape_ok() &&
         unrolled.alpha.size() == unrolled.log_rho.size();
}

WarmStartPredictor random_predictor(std::size_t hidden, std::size_t steps,
                                    double rho, std::uint64_t seed) {
  if (hidden == 0 || hidden > kMaxHidden)
    throw std::invalid_argument("random_predictor: bad hidden width");
  num::Rng rng(seed);
  WarmStartPredictor p;
  p.mlp.hidden = hidden;
  const double b1 = std::sqrt(6.0 / static_cast<double>(kFeatures));
  const double b2 = std::sqrt(6.0 / static_cast<double>(hidden));
  p.mlp.w1 = rng.uniform_vec(hidden * kFeatures, -b1, b1);
  p.mlp.b1.assign(hidden, 0.0);
  p.mlp.w2 = rng.uniform_vec(hidden * hidden, -b2, b2);
  p.mlp.b2.assign(hidden, 0.0);
  p.mlp.w3 = rng.uniform_vec(hidden, -b2, b2);
  p.mlp.b3.assign(1, 0.0);
  p.unrolled = UnrolledParams::plain(steps, rho);
  return p;
}

WarmStartPredictor zero_predictor(std::size_t hidden, std::size_t steps,
                                  double rho) {
  WarmStartPredictor p = random_predictor(hidden, steps, rho, 1);
  std::fill(p.mlp.w3.begin(), p.mlp.w3.end(), 0.0);
  std::fill(p.mlp.b3.begin(), p.mlp.b3.end(), 0.0);
  return p;
}

FeatureScales feature_scales(const PowerQp& qp, const double* d_unc) {
  FeatureScales s;
  const double cscale = qp.max_curv > 0.0 ? qp.max_curv : 1.0;
  s.inv_curv = 1.0 / cscale;
  s.inv_slope = 1.0 / std::sqrt(cscale * detail::kInvLn2);
  s.inv_p0 = qp.p0 > 0.0 ? 1.0 / qp.p0 : 1.0;
  s.n_squash = 1.0 / (1.0 + static_cast<double>(qp.n) / 64.0);
  s.penalty = qp.lambda * s.inv_curv;
  double mean = 0.0;
  for (std::size_t i = 0; i < qp.n; ++i) mean += d_unc[i];
  mean = qp.n > 0 ? mean / static_cast<double>(qp.n) : 0.0;
  s.mean_dunc = std::clamp(mean * s.inv_p0, -4.0, 4.0);
  return s;
}

void fill_features(const PowerQp& qp, const FeatureScales& s,
                   const double* d_unc, std::size_t i, double* f) {
  f[0] = qp.curv[i] * s.inv_curv;
  f[1] = qp.slope[i] * s.inv_slope;
  f[2] = std::clamp(d_unc[i] * s.inv_p0, -4.0, 4.0);
  // Saturation g p0 / (1 + g p0) = p0 curv / (-slope); 0 for a dead RB.
  f[3] = qp.slope[i] != 0.0 ? qp.p0 * qp.curv[i] / (-qp.slope[i]) : 0.0;
  f[4] = s.n_squash;
  f[5] = s.penalty;
  f[6] = s.mean_dunc;
}

double mlp_forward(const MlpWeights& w, const double* f) {
  std::array<double, kMaxHidden> h1;
  std::array<double, kMaxHidden> h2;
  const std::size_t hd = w.hidden;
  for (std::size_t o = 0; o < hd; ++o) {
    double acc = w.b1[o];
    const double* row = w.w1.data() + o * w.in;
    for (std::size_t j = 0; j < w.in; ++j) acc += row[j] * f[j];
    h1[o] = acc > 0.0 ? acc : 0.0;
  }
  for (std::size_t o = 0; o < hd; ++o) {
    double acc = w.b2[o];
    const double* row = w.w2.data() + o * hd;
    for (std::size_t j = 0; j < hd; ++j) acc += row[j] * h1[j];
    h2[o] = acc > 0.0 ? acc : 0.0;
  }
  double acc = w.b3[0];
  for (std::size_t j = 0; j < hd; ++j) acc += w.w3[j] * h2[j];
  return std::tanh(acc);
}

void predict_warm_start(const PowerQp& qp, const WarmStartPredictor& p,
                        double rho_out, double* z, double* u,
                        double* scratch) {
  if (!p.shape_ok())
    throw std::invalid_argument("predict_warm_start: malformed predictor");
  if (!(rho_out > 0.0))
    throw std::invalid_argument("predict_warm_start: rho_out must be > 0");
  const std::size_t n = qp.n;
  double* d_unc = scratch;
  double* step_scratch = scratch + n;

  unconstrained_minimizer(qp, d_unc);
  const FeatureScales scales = feature_scales(qp, d_unc);
  std::array<double, kFeatures> f;
  for (std::size_t i = 0; i < n; ++i) {
    fill_features(qp, scales, d_unc, i, f.data());
    z[i] = d_unc[i] + qp.p0 * mlp_forward(p.mlp, f.data());
  }
  // Projection makes the seed feasible-by-construction: even NaN weights
  // only ever yield box midpoints here.
  project_box(z, qp.lo, qp.hi, n);

  for (std::size_t i = 0; i < n; ++i) u[i] = 0.0;
  if (p.unrolled.steps() > 0) {
    unrolled_admm_run(qp, p.unrolled, z, u, step_scratch);
    const double rho_last =
        std::clamp(std::exp(std::clamp(
                       p.unrolled.log_rho[p.unrolled.steps() - 1],
                       -20.0, 20.0)),
                   1e-8, 1e8);
    rescale_dual(u, n, rho_last, rho_out);
    // The z-update clamps every coordinate, so z is still box-feasible; the
    // dual rescale can meet non-finite only via a corrupted parameter, and
    // the opt-layer warm contract rejects that state downstream.
  } else {
    stationarity_dual(qp, z, rho_out, u);
  }
}

double mean_pg_residual(const std::vector<PowerQpData>& dataset,
                        const WarmStartPredictor& p, double rho) {
  if (dataset.empty()) return 0.0;
  double sum = 0.0;
  Vec z, u, scratch, cold;
  for (const PowerQpData& data : dataset) {
    const PowerQp qp = data.view();
    z.resize(qp.n);
    u.resize(qp.n);
    scratch.resize(2 * qp.n);
    predict_warm_start(qp, p, rho, z.data(), u.data(), scratch.data());
    // Normalize by the cold start's residual (z = 0 is the exact solver's
    // cold initialization) so problems of different scales weigh equally.
    cold.assign(qp.n, 0.0);
    const double denom = pg_residual(qp, cold.data()) + 1e-300;
    sum += pg_residual(qp, z.data()) / denom;
  }
  return sum / static_cast<double>(dataset.size());
}

}  // namespace rcr::learn
