// Structured box-QP x-update: a diagonal-plus-constant P (every off-diagonal
// entry bit-equal to one finite c >= 0) is solved by Sherman-Morrison in
// O(n) instead of LU.  The properties pin the solve's residual, its
// agreement with the LU path (forced by nudging one off-diagonal entry by
// one ulp), and the detection rule's fallbacks to LU.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "rcr/opt/admm.hpp"
#include "rcr/testkit/gtest.hpp"
#include "rcr/testkit/testkit.hpp"

namespace tk = rcr::testkit;
namespace opt = rcr::opt;
using rcr::num::Matrix;
using rcr::Vec;

namespace {

struct DiagConstCase {
  Matrix p;  ///< diag(curv) + c 1 1^T
  double rho = 1.0;
  double ridge = 0.0;
  Vec b;          ///< Right-hand side for the bare x-update solve.
  Vec q, lo, hi;  ///< Box QP for the ADMM differential.
};

double log_uniform(rcr::num::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

// n in {1, 2, 12, 48}; curvatures log-uniform over 1e-6..1e6 (or over a
// narrow serve-like range); c = 0, c ~ the curvatures (the serve power QP
// has c = 2 max curv), or c up to 1e3 x the largest curvature; rho from
// 0.1 to 10; ridge zero or log-uniform over 1e-10..1e-2.
tk::Gen<DiagConstCase> gen_diag_const() {
  tk::Gen<DiagConstCase> g;
  g.sample = [](rcr::num::Rng& rng) {
    static constexpr std::size_t kSizes[] = {1, 2, 12, 48};
    const std::size_t n = kSizes[rng.uniform_int(0, 3)];
    const bool wide = rng.uniform() < 0.5;
    Vec curv(n);
    double max_curv = 0.0;
    for (double& v : curv) {
      v = wide ? log_uniform(rng, 1e-6, 1e6) : log_uniform(rng, 0.1, 10.0);
      max_curv = std::max(max_curv, v);
    }
    double c = 0.0;
    const double kind = rng.uniform();
    if (kind < 0.4)
      c = 2.0 * max_curv;
    else if (kind < 0.7)
      c = max_curv * log_uniform(rng, 10.0, 1e3);
    else if (kind < 0.85)
      c = rng.uniform(0.0, max_curv);
    DiagConstCase out;
    out.p = Matrix(n, n, c);
    for (std::size_t i = 0; i < n; ++i) out.p(i, i) += curv[i];
    out.rho = log_uniform(rng, 0.1, 10.0);
    out.ridge = rng.uniform() < 0.5 ? 0.0 : log_uniform(rng, 1e-10, 1e-2);
    out.b = rng.normal_vec(n, 0.0, log_uniform(rng, 1e-3, 1e3));
    out.q = rng.normal_vec(n, 0.0, max_curv);
    out.lo = Vec(n);
    out.hi = Vec(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.lo[i] = rng.uniform(-2.0, 0.0);
      out.hi[i] = out.lo[i] + rng.uniform(0.5, 3.0);
    }
    return out;
  };
  g.show = [](const DiagConstCase& c) {
    return "n = " + std::to_string(c.p.rows()) + ", P = " +
           tk::show_matrix(c.p) + ", rho = " + tk::show_double(c.rho) +
           ", ridge = " + tk::show_double(c.ridge) +
           ", b = " + tk::show_vec(c.b);
  };
  return g;
}

tk::CheckOptions cases(std::size_t n) {
  tk::CheckOptions o;
  o.cases = n;
  return o;
}

/// max_i |((P + shift I) x - b)_i| against the backward-error scale
/// ||P + shift I||_inf ||x||_inf + ||b||_inf.
std::string residual_check(const Matrix& p, double shift, const Vec& x,
                           const Vec& b, double rel) {
  const std::size_t n = p.rows();
  double worst = 0.0;
  double norm_m = 0.0;
  double norm_x = 0.0;
  double norm_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = shift * x[i] - b[i];
    double row_abs = std::abs(shift);
    for (std::size_t j = 0; j < n; ++j) {
      row += p(i, j) * x[j];
      row_abs += std::abs(p(i, j));
    }
    worst = std::max(worst, std::abs(row));
    norm_m = std::max(norm_m, row_abs);
    norm_x = std::max(norm_x, std::abs(x[i]));
    norm_b = std::max(norm_b, std::abs(b[i]));
  }
  const double scale = norm_m * norm_x + norm_b;
  if (!(worst <= rel * scale))
    return "residual " + tk::show_double(worst) + " > " +
           tk::show_double(rel) + " * scale " + tk::show_double(scale);
  return "";
}

TEST(BoxQpStructure, ShermanMorrisonSolveHasTinyResidual) {
  RCR_EXPECT_PROP(tk::check<DiagConstCase>(
      "diagonal-plus-constant x-update residual", gen_diag_const(),
      [](const DiagConstCase& c) {
        const auto factor = opt::try_prefactor_box_qp(c.p, c.rho, c.ridge);
        if (!factor.status.ok())
          return "factor failed: " + factor.status.to_string();
        if (!factor.value.diag_plus_const())
          return std::string("structured P did not take the O(n) path");
        Vec x;
        factor.value.solve_into(c.b, x);
        return residual_check(c.p, c.rho + c.ridge, x, c.b, 1e-12);
      },
      cases(200)));
}

TEST(BoxQpStructure, AdmmAgreesWithTheLuPathOneUlpAway) {
  RCR_EXPECT_PROP(tk::check<DiagConstCase>(
      "admm_box_qp structured == LU one ulp away", gen_diag_const(),
      [](const DiagConstCase& c) {
        const std::size_t n = c.p.rows();
        if (n < 2) return std::string();  // no off-diagonal to nudge
        Matrix nudged = c.p;
        nudged(0, 1) = std::nextafter(nudged(0, 1),
                                      std::numeric_limits<double>::infinity());
        const auto sm = opt::try_prefactor_box_qp(c.p, c.rho, c.ridge);
        const auto lu = opt::try_prefactor_box_qp(nudged, c.rho, c.ridge);
        if (!sm.value.diag_plus_const() || lu.value.diag_plus_const() ||
            lu.value.factor.lu.rows() != n)
          return std::string("nudge did not force the LU path");
        // A fixed iteration count (the convergence test can never pass with
        // a negative tolerance) compares the iterates, not the stop rule.
        opt::AdmmOptions options;
        options.rho = c.rho;
        options.tolerance = -1.0;
        options.max_iterations = 300;
        const opt::AdmmResult a =
            opt::admm_box_qp(c.p, c.q, c.lo, c.hi, options);
        const opt::AdmmResult b =
            opt::admm_box_qp(nudged, c.q, c.lo, c.hi, options);
        if (a.iterations != b.iterations)
          return std::string("iteration counts diverge");
        for (std::size_t i = 0; i < n; ++i)
          if (!(std::abs(a.x[i] - b.x[i]) <= 1e-9))
            return "x[" + std::to_string(i) + "] differs: " +
                   tk::show_double(a.x[i]) + " vs " + tk::show_double(b.x[i]);
        return std::string();
      },
      cases(100)));
}

/// try_prefactor_box_qp took the LU path: factors present, no 1/d.
void expect_lu_path(const Matrix& p, double rho, double ridge = 0.0) {
  const auto f = opt::try_prefactor_box_qp(p, rho, ridge);
  EXPECT_FALSE(f.value.diag_plus_const()) << tk::show_matrix(p);
  EXPECT_EQ(f.value.factor.lu.rows(), p.rows()) << tk::show_matrix(p);
}

TEST(BoxQpStructure, OutsideTheStructureTakesTheLuPath) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix base(3, 3, 0.5);
  for (std::size_t i = 0; i < 3; ++i) base(i, i) += 1.0 + i;
  {
    const auto f = opt::try_prefactor_box_qp(base, 1.0);
    EXPECT_TRUE(f.value.diag_plus_const());
    EXPECT_EQ(f.value.factor.lu.rows(), 0u);
  }
  Matrix neg(3, 3, -0.5);  // negative c
  for (std::size_t i = 0; i < 3; ++i) neg(i, i) = 2.0;
  expect_lu_path(neg, 1.0);
  Matrix off_nan = base;  // non-finite off-diagonal (every one equal)
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      if (i != j) off_nan(i, j) = nan;
  expect_lu_path(off_nan, 1.0);
  Matrix off_inf = off_nan;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      if (i != j) off_inf(i, j) = inf;
  expect_lu_path(off_inf, 1.0);
  Matrix diag_inf = base;  // non-finite diagonal -> non-finite d_i
  diag_inf(1, 1) = inf;
  expect_lu_path(diag_inf, 1.0);
  Matrix diag_nan = base;
  diag_nan(2, 2) = nan;
  expect_lu_path(diag_nan, 1.0);
  Matrix d_zero = base;  // d_0 = p_00 - c + rho = 0
  d_zero(0, 0) = -0.5;
  expect_lu_path(d_zero, 1.0);
  Matrix d_neg = base;  // d_0 < 0
  d_neg(0, 0) = -2.0;
  expect_lu_path(d_neg, 1.0);
  Matrix asym = base;  // one off-diagonal differs
  asym(2, 0) = 0.25;
  expect_lu_path(asym, 1.0);
  // A ridge can lift d_0 above zero: the form is chosen per (rho, ridge).
  const auto lifted = opt::try_prefactor_box_qp(d_zero, 1.0, 1e-6);
  EXPECT_TRUE(lifted.value.diag_plus_const());
}

TEST(BoxQpStructure, SingularOutsideTheStructureWalksTheRidgeLadder) {
  // P + rho I = [[1, -1], [-1, 1]] (negative c) and [[1, 1], [1, 1]]
  // (d_i = 0): both are singular, take the LU path at the first rung, and
  // recover on the first ridge rung.
  for (const double c : {-1.0, 1.0}) {
    SCOPED_TRACE("c = " + std::to_string(c));
    Matrix p(2, 2, c);
    p(0, 0) = 0.0;
    p(1, 1) = 0.0;
    const auto f = opt::try_prefactor_box_qp(p, 1.0);
    EXPECT_EQ(f.status.code, rcr::robust::StatusCode::kSingular);
    EXPECT_FALSE(f.value.diag_plus_const());
    EXPECT_TRUE(f.value.factor.singular);
    opt::AdmmOptions options;
    options.max_iterations = 50;
    const opt::AdmmResult r =
        opt::admm_box_qp(p, Vec{0.5, -0.25}, Vec(2, -1.0), Vec(2, 1.0),
                         options);
    EXPECT_TRUE(r.status.usable()) << r.status.to_string();
    std::size_t factor_notes = 0;
    for (const std::string& note : r.status.trail)
      if (note.rfind("factor failed", 0) == 0) ++factor_notes;
    EXPECT_EQ(factor_notes, 1u) << r.status.to_string();
    ASSERT_FALSE(r.status.trail.empty());
    EXPECT_NE(r.status.trail[0].find("ridge=0.000000)"), std::string::npos)
        << r.status.trail[0];
    for (const double v : r.x) EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
