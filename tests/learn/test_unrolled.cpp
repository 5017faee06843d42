// Unrolled-ADMM head and predictor tests: the plain-parameter head is a
// contraction toward the exact solution, the dual rescale keeps the
// unscaled multiplier, and prediction is a deterministic, box-feasible pure
// function that validates its weights' shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "rcr/learn/predictor.hpp"
#include "rcr/learn/project.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/opt/admm.hpp"

namespace rcr::learn {
namespace {

PowerQpData sample_problem(std::uint64_t seed, std::size_t n = 8) {
  num::Rng rng(seed);
  Vec gains(n);
  for (double& g : gains) g = std::abs(rng.normal(1.0, 0.5)) + 0.05;
  return make_power_qp(gains, 4.0);
}

// Exact solution via the opt-layer solver at tight tolerance.
Vec exact_solution(const PowerQpData& data, double rho = 1.0) {
  const std::size_t n = data.n;
  num::Matrix p(n, n, 2.0 * data.lambda);
  for (std::size_t i = 0; i < n; ++i) p(i, i) += data.curv[i];
  opt::AdmmOptions options;
  options.rho = rho;
  options.tolerance = 1e-12;
  options.max_iterations = 20000;
  const opt::AdmmResult r =
      opt::admm_box_qp(p, data.slope, data.lo, data.hi, options);
  EXPECT_TRUE(r.status.usable());
  return r.x;
}

TEST(Unrolled, PlainParamsContractTowardExactSolution) {
  const PowerQpData data = sample_problem(3);
  const PowerQp qp = data.view();
  const Vec exact = exact_solution(data);

  Vec z(qp.n, 0.0), u(qp.n, 0.0), scratch(qp.n);
  double prev = pg_residual(qp, z.data());
  for (int rounds = 0; rounds < 6; ++rounds) {
    unrolled_admm_run(qp, UnrolledParams::plain(10, 1.0), z.data(), u.data(),
                      scratch.data());
    const double resid = pg_residual(qp, z.data());
    EXPECT_LT(resid, prev) << "round " << rounds;
    prev = resid;
  }
  // 60 plain steps of the O(n) head reproduce the exact solver's answer.
  for (std::size_t i = 0; i < qp.n; ++i)
    EXPECT_NEAR(z[i], exact[i], 1e-6) << "coordinate " << i;
  EXPECT_THROW(UnrolledParams::plain(3, 0.0), std::invalid_argument);
}

TEST(Unrolled, DualRescaleKeepsMultiplierInvariant) {
  Vec u = {1.0, -2.0, 0.5};
  const Vec y = {2.0, -4.0, 1.0};  // rho * u at rho = 2.
  rescale_dual(u.data(), u.size(), 2.0, 8.0);
  for (std::size_t i = 0; i < u.size(); ++i)
    EXPECT_DOUBLE_EQ(8.0 * u[i], y[i]);
}

TEST(Predictor, OutputAlwaysBoxFeasibleAndDeterministic) {
  num::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const PowerQpData data =
        sample_problem(1000 + static_cast<std::uint64_t>(trial),
                       static_cast<std::size_t>(rng.uniform_int(1, 24)));
    const PowerQp qp = data.view();
    const WarmStartPredictor p = random_predictor(
        16, 4, 1.0, 4242 + static_cast<std::uint64_t>(trial));
    Vec z1(qp.n), u1(qp.n), z2(qp.n), u2(qp.n), scratch(2 * qp.n);
    predict_warm_start(qp, p, 1.0, z1.data(), u1.data(), scratch.data());
    EXPECT_TRUE(box_feasible(z1, data.lo, data.hi)) << "trial " << trial;
    for (double x : u1) EXPECT_TRUE(std::isfinite(x));
    predict_warm_start(qp, p, 1.0, z2.data(), u2.data(), scratch.data());
    for (std::size_t i = 0; i < qp.n; ++i) {
      EXPECT_EQ(std::memcmp(&z1[i], &z2[i], sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&u1[i], &u2[i], sizeof(double)), 0);
    }
  }
}

TEST(Predictor, ZeroPredictorSeedsFromAnalyticMinimizer) {
  const PowerQpData data = sample_problem(7);
  const PowerQp qp = data.view();
  // With no unrolled steps the zero-MLP primal is exactly the projected
  // unconstrained minimizer.
  const WarmStartPredictor p = zero_predictor(8, 0, 1.0);
  Vec z(qp.n), u(qp.n), scratch(2 * qp.n), d(qp.n);
  predict_warm_start(qp, p, 1.0, z.data(), u.data(), scratch.data());
  unconstrained_minimizer(qp, d.data());
  for (std::size_t i = 0; i < qp.n; ++i)
    EXPECT_EQ(z[i], std::clamp(d[i], data.lo[i], data.hi[i]));
}

TEST(Predictor, ShapeValidationRejectsMalformedWeights) {
  WarmStartPredictor p = random_predictor(8, 2, 1.0, 1);
  EXPECT_TRUE(p.shape_ok());
  p.mlp.w2.pop_back();
  EXPECT_FALSE(p.shape_ok());
  const PowerQpData data = sample_problem(1);
  Vec z(data.n), u(data.n), scratch(2 * data.n);
  EXPECT_THROW(predict_warm_start(data.view(), p, 1.0, z.data(), u.data(),
                                  scratch.data()),
               std::invalid_argument);
  EXPECT_THROW(random_predictor(0, 2, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(random_predictor(kMaxHidden + 1, 2, 1.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace rcr::learn
