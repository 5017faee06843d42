// Property tests for the rcr::learn box projection: totality on
// adversarial inputs (NaN/Inf/huge/degenerate), idempotence, feasibility,
// and schedule independence (the projection is a pure serial function, so
// its bits cannot depend on RCR_THREADS).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "../fan_out_leg.hpp"
#include "rcr/learn/project.hpp"
#include "rcr/numerics/rng.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/testkit/gtest.hpp"
#include "rcr/testkit/property.hpp"

namespace rcr::learn {
namespace {

namespace tk = rcr::testkit;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Vec adversarial_vec(num::Rng& rng, std::size_t n) {
  Vec v(n);
  for (double& x : v) {
    switch (rng.uniform_int(0, 5)) {
      case 0: x = kNan; break;
      case 1: x = kInf; break;
      case 2: x = -kInf; break;
      case 3: x = rng.normal(0.0, 1e200); break;
      case 4: x = 0.0; break;
      default: x = rng.normal(); break;
    }
  }
  return v;
}

struct BoxCase {
  Vec lo, hi, v;
};

tk::Gen<BoxCase> gen_box_case() {
  tk::Gen<BoxCase> g;
  g.sample = [](num::Rng& rng) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    BoxCase c;
    c.lo.resize(n);
    c.hi.resize(n);
    c.v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = rng.uniform(-10.0, 10.0);
      const double b = rng.uniform(-10.0, 10.0);
      c.lo[i] = std::min(a, b);
      c.hi[i] = std::max(a, b);
      c.v[i] = rng.uniform(-100.0, 100.0);
    }
    return c;
  };
  g.show = [](const BoxCase& c) {
    return "lo = " + tk::show_vec(c.lo) + ", hi = " + tk::show_vec(c.hi) +
           ", v = " + tk::show_vec(c.v);
  };
  return g;
}

TEST(ProjectBox, FeasibleAndBitwiseIdempotentOnRandomInputs) {
  RCR_EXPECT_PROP(tk::check<BoxCase>(
      "box projection feasible + idempotent", gen_box_case(),
      [](const BoxCase& c) {
        const Vec once = project_box(c.v, c.lo, c.hi);
        if (!box_feasible(once, c.lo, c.hi))
          return std::string("projection not feasible");
        const Vec twice = project_box(once, c.lo, c.hi);
        for (std::size_t i = 0; i < once.size(); ++i)
          if (std::memcmp(&once[i], &twice[i], sizeof(double)) != 0)
            return "not bitwise idempotent at " + std::to_string(i);
        return std::string();
      }));
}

TEST(ProjectBox, AdversarialInputsLandInBox) {
  num::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 16));
    Vec lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = rng.normal();
      hi[i] = lo[i] + std::abs(rng.normal());
    }
    const Vec v = adversarial_vec(rng, n);
    const Vec p = project_box(v, lo, hi);
    EXPECT_TRUE(box_feasible(p, lo, hi));
    // A non-finite coordinate must deterministically become the midpoint.
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(v[i])) {
        EXPECT_EQ(p[i], 0.5 * (lo[i] + hi[i]));
      }
    }
    const Vec pp = project_box(p, lo, hi);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(p[i], pp[i]);
  }
}

TEST(ProjectBox, DegenerateBoxAndBadBounds) {
  // Zero-width box: everything maps to the single point.
  const Vec p =
      project_box({kNan, 5.0, -3.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0});
  for (double x : p) EXPECT_EQ(x, 1.0);
  EXPECT_THROW(project_box({0.0}, {1.0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(project_box({0.0}, {kNan}, {1.0}), std::invalid_argument);
  EXPECT_THROW(project_box({0.0}, {0.0}, {kInf}), std::invalid_argument);
  EXPECT_THROW(project_box({0.0, 0.0}, {0.0}, {1.0}),
               std::invalid_argument);
}

TEST(Projection, BitExactAcrossThreadModes) {
  // The projection is a pure serial function; pin that down by comparing a
  // forced-serial run against a forced fan-out on a pool with workers,
  // which must not dispatch anything.
  num::Rng rng(31337);
  const std::size_t n = 64;
  Vec lo(n), hi(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo[i] = -std::abs(rng.normal()) - 0.1;
    hi[i] = std::abs(rng.normal()) + 0.1;
    v[i] = rng.normal(0.0, 10.0);
  }
  Vec box_parallel;
  {
    test_support::FanOutLeg leg;
    box_parallel = project_box(v, lo, hi);
    EXPECT_EQ(leg.tasks(), 0u) << "the projection reached the pool";
  }
  Vec box_serial;
  {
    rt::ForceSerialGuard serial;
    box_serial = project_box(v, lo, hi);
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(box_parallel[i], box_serial[i]);
}

}  // namespace
}  // namespace rcr::learn
