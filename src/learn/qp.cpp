#include "rcr/learn/qp.hpp"

#include <algorithm>
#include <stdexcept>

namespace rcr::learn {

namespace {
// Ridge floor for vanishing curvature entries (zero-gain RBs): keeps the
// diagonal solves in unconstrained_minimizer total without perturbing any
// RB that actually carries signal.
constexpr double kCurvFloor = 1e-12;
}  // namespace

PowerQpData make_power_qp(const Vec& gains, double budget,
                          double budget_penalty) {
  if (gains.empty()) throw std::invalid_argument("make_power_qp: empty gains");
  if (!(budget > 0.0))
    throw std::invalid_argument("make_power_qp: budget must be positive");
  PowerQpData qp;
  qp.n = gains.size();
  qp.budget = budget;
  qp.p0 = budget / static_cast<double>(qp.n);
  qp.curv.resize(qp.n);
  qp.slope.resize(qp.n);
  qp.max_curv =
      power_qp_coeffs(gains.data(), qp.n, qp.p0, qp.curv.data(),
                      qp.slope.data());
  qp.lambda = budget_penalty * (qp.max_curv > 0.0 ? qp.max_curv : 1.0);
  qp.lo.assign(qp.n, -qp.p0);
  qp.hi.assign(qp.n, budget - qp.p0);
  return qp;
}

double qp_objective(const PowerQp& qp, const double* z) {
  double quad = 0.0;
  double lin = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < qp.n; ++i) {
    quad += qp.curv[i] * z[i] * z[i];
    lin += qp.slope[i] * z[i];
    total += z[i];
  }
  return 0.5 * quad + lin + qp.lambda * total * total;
}

double pg_residual(const PowerQp& qp, const double* z) {
  double total = 0.0;
  for (std::size_t i = 0; i < qp.n; ++i) total += z[i];
  const double coupling = 2.0 * qp.lambda * total;
  double sq = 0.0;
  for (std::size_t i = 0; i < qp.n; ++i) {
    const double g = qp.curv[i] * z[i] + qp.slope[i] + coupling;
    const double stepped = std::clamp(z[i] - g, qp.lo[i], qp.hi[i]);
    const double r = z[i] - stepped;
    sq += r * r;
  }
  return std::sqrt(sq);
}

void unconstrained_minimizer(const PowerQp& qp, double* d) {
  // (S + c 11^T) d = -slope with S = diag(max(curv, floor)), c = 2 lambda:
  //   d = -S^-1 slope + (c * 1^T S^-1 slope) / (1 + c * 1^T S^-1 1) * S^-1 1.
  const double c = 2.0 * qp.lambda;
  double s_inv_q = 0.0;  // 1^T S^-1 slope
  double s_inv_1 = 0.0;  // 1^T S^-1 1
  for (std::size_t i = 0; i < qp.n; ++i) {
    const double s = std::max(qp.curv[i], kCurvFloor);
    s_inv_q += qp.slope[i] / s;
    s_inv_1 += 1.0 / s;
  }
  const double gamma = (c * s_inv_q) / (1.0 + c * s_inv_1);
  for (std::size_t i = 0; i < qp.n; ++i) {
    const double s = std::max(qp.curv[i], kCurvFloor);
    d[i] = (-qp.slope[i] + gamma) / s;
  }
}

void stationarity_dual(const PowerQp& qp, const double* z, double rho,
                       double* u) {
  double total = 0.0;
  for (std::size_t i = 0; i < qp.n; ++i) total += z[i];
  const double coupling = 2.0 * qp.lambda * total;
  const double inv_rho = 1.0 / rho;
  for (std::size_t i = 0; i < qp.n; ++i)
    u[i] = -(qp.curv[i] * z[i] + qp.slope[i] + coupling) * inv_rho;
}

}  // namespace rcr::learn
