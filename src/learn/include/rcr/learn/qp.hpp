// The serve-layer power QP, factored out as a first-class vocabulary type.
//
// Every tick the allocation service solves, per cell, the second-order
// Taylor model of the sum-rate power allocation around the equal split
// p0 = budget / n, in the step variable d = p - p0:
//
//   minimize  sum_i (1/2 curv_i d_i^2 + slope_i d_i) + lambda (1^T d)^2
//   subject to lo <= d <= hi            (box keeping p in [0, budget])
//
// i.e. a box QP whose Hessian is diagonal-plus-rank-one:
//   P = diag(curv) + 2 lambda 1 1^T.
// That structure is what makes a learned warm start cheap: the objective,
// gradient, projected-gradient residual, and even the *unconstrained*
// minimizer (via Sherman-Morrison) are all O(n), so the learned head and
// its acceptance checks cost a handful of passes over the RB axis.
//
// power_qp_coeffs is the single source of truth for the Taylor coefficients;
// serve::AllocationService::solve_cell calls it with arena pointers and
// serve::sample_power_qps calls it through make_power_qp, so the learn
// tests' datasets and the served problems never drift apart bit-wise.
#pragma once

#include <cmath>
#include <cstddef>

#include "rcr/numerics/vector_ops.hpp"

namespace rcr::learn {

using rcr::Vec;

/// Non-owning view of one cell's power QP (all pointers length n).
struct PowerQp {
  const double* curv = nullptr;   ///< Diagonal of P (>= 0).
  const double* slope = nullptr;  ///< Linear term q.
  const double* lo = nullptr;     ///< Box lower bound (-p0).
  const double* hi = nullptr;     ///< Box upper bound (budget - p0).
  std::size_t n = 0;
  double lambda = 0.0;            ///< Soft budget penalty (P += 2 lambda 11^T).
  double p0 = 0.0;                ///< Equal-split power budget/n.
  double budget = 0.0;            ///< Total power budget.
  double max_curv = 0.0;          ///< max_i curv_i (feature normalizer).
};

/// Owning problem record (the element of serve::sample_power_qps).
struct PowerQpData {
  Vec curv, slope, lo, hi;
  std::size_t n = 0;
  double lambda = 0.0;
  double p0 = 0.0;
  double budget = 0.0;
  double max_curv = 0.0;

  PowerQp view() const {
    PowerQp qp;
    qp.curv = curv.data();
    qp.slope = slope.data();
    qp.lo = lo.data();
    qp.hi = hi.data();
    qp.n = n;
    qp.lambda = lambda;
    qp.p0 = p0;
    qp.budget = budget;
    qp.max_curv = max_curv;
    return qp;
  }
};

namespace detail {
constexpr double kInvLn2 = 1.4426950408889634074;  // 1 / ln 2
}

/// Second-order Taylor coefficients of -sum log2(1 + g p) at p0, written
/// into caller storage.  Returns max_i curv_i.  This is the exact loop the
/// serve tick ran before the learn layer existed -- same expressions, same
/// order, same bits.
inline double power_qp_coeffs(const double* gains, std::size_t n, double p0,
                              double* curv, double* slope) {
  double max_curv = 0.0;
  for (std::size_t rb = 0; rb < n; ++rb) {
    const double g = gains[rb];
    const double denom = 1.0 + g * p0;
    curv[rb] = g * g * detail::kInvLn2 / (denom * denom);
    slope[rb] = -g * detail::kInvLn2 / denom;
    if (curv[rb] > max_curv) max_curv = curv[rb];
  }
  return max_curv;
}

/// Assemble the owning record for per-RB `gains` exactly the way the serve
/// tick loop does (p0 = budget/n, lambda = penalty * max(max_curv, 1),
/// box d in [-p0, budget - p0]).
PowerQpData make_power_qp(const Vec& gains, double budget,
                          double budget_penalty = 1.0);

/// f(z) = sum_i (1/2 curv_i z_i^2 + slope_i z_i) + lambda (sum_i z_i)^2.
double qp_objective(const PowerQp& qp, const double* z);

/// Projected-gradient residual ||z - clamp(z - g(z), lo, hi)||_2: zero
/// exactly at the box-constrained optimum, and a schedule-independent O(n)
/// proxy for "how many ADMM iterations away is this start point".
double pg_residual(const PowerQp& qp, const double* z);

/// Unconstrained minimizer of f via Sherman-Morrison on
/// (diag(curv) + 2 lambda 11^T) d = -slope, into caller storage.  Vanishing
/// curvature entries are ridge-guarded so the solve is total.
void unconstrained_minimizer(const PowerQp& qp, double* d);

/// Scaled ADMM dual consistent with primal z at penalty rho:
/// u = -(P z + slope) / rho (exact at the fixed point), into caller storage.
void stationarity_dual(const PowerQp& qp, const double* z, double rho,
                       double* u);

}  // namespace rcr::learn
