#include "rcr/learn/unrolled.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rcr::learn {

UnrolledParams UnrolledParams::plain(std::size_t k, double rho) {
  if (!(rho > 0.0))
    throw std::invalid_argument("UnrolledParams::plain: rho must be positive");
  UnrolledParams p;
  p.log_rho.assign(k, std::log(rho));
  p.alpha.assign(k, 1.0);
  return p;
}

void rescale_dual(double* u, std::size_t n, double rho_from, double rho_to) {
  if (rho_from == rho_to) return;
  const double scale = rho_from / rho_to;
  for (std::size_t i = 0; i < n; ++i) u[i] *= scale;
}

void unrolled_admm_run(const PowerQp& qp, const UnrolledParams& params,
                       double* z, double* u, double* scratch) {
  if (params.alpha.size() != params.log_rho.size())
    throw std::invalid_argument("unrolled_admm_run: ragged params");
  const std::size_t n = qp.n;
  const double c = 2.0 * qp.lambda;
  double* x = scratch;
  double rho_prev = 0.0;
  for (std::size_t k = 0; k < params.steps(); ++k) {
    // Clamp the learnable knobs to a sane region: a wild parameter (or
    // corrupted artifact) cannot make a step amplify the iterate
    // unboundedly.
    const double rho =
        std::clamp(std::exp(std::clamp(params.log_rho[k], -20.0, 20.0)),
                   1e-8, 1e8);
    const double alpha = std::clamp(params.alpha[k], 0.1, 1.9);
    if (k > 0) rescale_dual(u, n, rho_prev, rho);
    rho_prev = rho;

    // x-update: (diag(curv) + c 11^T + rho I) x = rho (z - u) - slope.
    // Sherman-Morrison with S = diag(curv + rho):
    //   x = S^-1 b - (c 1^T S^-1 b) / (1 + c 1^T S^-1 1) S^-1 1.
    double s_inv_b = 0.0;
    double s_inv_1 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double s = qp.curv[i] + rho;
      const double b = rho * (z[i] - u[i]) - qp.slope[i];
      x[i] = b / s;
      s_inv_b += x[i];
      s_inv_1 += 1.0 / s;
    }
    const double gamma = (c * s_inv_b) / (1.0 + c * s_inv_1);
    for (std::size_t i = 0; i < n; ++i) {
      const double s = qp.curv[i] + rho;
      x[i] -= gamma / s;
    }

    for (std::size_t i = 0; i < n; ++i) {
      const double xh = alpha * x[i] + (1.0 - alpha) * z[i];
      const double znew = std::clamp(xh + u[i], qp.lo[i], qp.hi[i]);
      u[i] += xh - znew;
      z[i] = znew;
    }
  }
}

}  // namespace rcr::learn
