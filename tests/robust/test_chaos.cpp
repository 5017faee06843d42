// Chaos suite: every registered fault site is exercised individually with a
// deterministic seeded injector, and the workload behind it must return a
// degraded-but-valid answer -- never crash, never propagate an uncaught
// exception, never hand back NaN as a final result.
//
// Failures print the active RCR_FAULTS replay spec so any run reproduces
// exactly:  RCR_FAULTS="<spec>" ctest -L chaos
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "rcr/opt/admm.hpp"
#include "rcr/opt/lbfgs.hpp"
#include "rcr/opt/qcqp.hpp"
#include "rcr/opt/robust_solve.hpp"
#include "rcr/opt/sdp.hpp"
#include "rcr/opt/trust_region.hpp"
#include "rcr/pso/swarm.hpp"
#include "rcr/qos/robust.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/qos/rrm.hpp"
#include "rcr/rcr/stack.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/robust/guards.hpp"
#include "rcr/serve/service.hpp"
#include "rcr/verify/bounds.hpp"
#include "rcr/verify/verifier.hpp"

namespace rcr {
namespace {

using robust::StatusCode;
namespace faults = robust::faults;

// Seed for the per-site sweeps; override to explore other decision streams.
std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("RCR_CHAOS_SEED"))
    return std::strtoull(env, nullptr, 0);
  return 20260806;
}

std::string spec_for(const std::string& site, const char* extra = "") {
  return "seed=" + std::to_string(chaos_seed()) + ",rate=1,sites=" + site +
         extra;
}

#define RCR_CHAOS_TRACE() SCOPED_TRACE("replay: RCR_FAULTS=\"" + \
                                       faults::replay_spec() + "\"")

// ---- Workloads.  Each returns with gtest assertions applied; all are
// small enough to keep the chaos label fast.

void run_admm_workload() {
  RCR_CHAOS_TRACE();
  num::Rng rng(3);
  const num::Matrix p = opt::random_psd(4, 4, rng) + num::Matrix::identity(4);
  const Vec q = rng.normal_vec(4);
  const opt::AdmmResult r =
      opt::admm_box_qp(p, q, Vec(4, -1.0), Vec(4, 1.0));
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x)) << r.status.to_string();
  for (const double v : r.x) {
    EXPECT_GE(v, -1.0 - 1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

void run_sdp_workload() {
  RCR_CHAOS_TRACE();
  opt::Sdp p;
  p.c = num::Matrix::diag({1.0, 2.0, 3.0});
  p.a_eq.push_back(num::Matrix::identity(3));
  p.b_eq.push_back(1.0);
  const opt::SdpResult r = opt::solve_sdp(p);
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  for (std::size_t i = 0; i < r.x.rows(); ++i)
    for (std::size_t j = 0; j < r.x.cols(); ++j)
      EXPECT_TRUE(std::isfinite(r.x(i, j))) << r.status.to_string();
}

void run_qcqp_workload() {
  RCR_CHAOS_TRACE();
  num::Rng rng(5);
  const opt::Qcqp prob = opt::random_convex_qcqp(3, 2, 0, rng);
  const opt::QcqpResult r = opt::solve_qcqp_barrier(prob);
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x)) << r.status.to_string();
  EXPECT_TRUE(std::isfinite(r.value)) << r.status.to_string();
}

opt::Smooth rosenbrock_smooth() {
  opt::Smooth f;
  f.value = [](const Vec& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  f.gradient = [](const Vec& x) {
    const double b = x[1] - x[0] * x[0];
    return Vec{-2.0 * (1.0 - x[0]) - 400.0 * x[0] * b, 200.0 * b};
  };
  return f;
}

void run_lbfgs_workload() {
  RCR_CHAOS_TRACE();
  const opt::MinimizeResult r =
      opt::lbfgs(rosenbrock_smooth(), Vec{-1.2, 1.0});
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x)) << r.status.to_string();
  EXPECT_TRUE(std::isfinite(r.value)) << r.status.to_string();
}

void run_trust_region_workload() {
  RCR_CHAOS_TRACE();
  const opt::MinimizeResult r =
      opt::trust_region_bfgs(rosenbrock_smooth(), Vec{-1.2, 1.0});
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x)) << r.status.to_string();
  EXPECT_TRUE(std::isfinite(r.value)) << r.status.to_string();
}

void run_pso_workload() {
  RCR_CHAOS_TRACE();
  pso::PsoConfig cfg;
  cfg.swarm_size = 8;
  cfg.max_iterations = 20;
  cfg.seed = 9;
  const pso::PsoResult r = pso::minimize(pso::sphere(3), cfg);
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.best_position)) << r.status.to_string();
  if (r.status.code == StatusCode::kNumericalFailure) {
    // Total wipeout (every evaluation non-finite): the position is still a
    // valid point in the box; the value is the +inf sentinel, never NaN.
    EXPECT_EQ(r.best_value, std::numeric_limits<double>::infinity())
        << r.status.to_string();
  } else {
    EXPECT_TRUE(std::isfinite(r.best_value)) << r.status.to_string();
  }
}

void run_verify_workload() {
  RCR_CHAOS_TRACE();
  num::Rng rng(7);
  const verify::ReluNetwork net =
      verify::ReluNetwork::random({2, 8, 3}, rng);
  const verify::Box input = verify::Box::around(Vec{0.0, 0.0}, 0.05);
  const verify::RobustBounds b = verify::compute_bounds_robust(net, input);
  EXPECT_TRUE(b.status.usable()) << b.status.to_string();
  EXPECT_TRUE(robust::all_finite(b.bounds.output.lower))
      << b.status.to_string();
  EXPECT_TRUE(robust::all_finite(b.bounds.output.upper))
      << b.status.to_string();
}

qos::RraProblem small_rra_problem() {
  qos::ChannelConfig cfg;
  cfg.num_users = 3;
  cfg.num_rbs = 5;
  cfg.seed = 2;
  qos::RraProblem p;
  p.gain = qos::make_channel(cfg).gain;
  p.total_power = 1.0;
  p.min_rate = Vec(3, 0.1);
  return p;
}

void run_qos_workload() {
  RCR_CHAOS_TRACE();
  const qos::RraRobustResult r = qos::solve_rra_robust(small_rra_problem());
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_FALSE(r.solution.assignment.empty()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.solution.power)) << r.status.to_string();
}

void run_rrm_workload() {
  RCR_CHAOS_TRACE();
  qos::RrmConfig cfg;
  cfg.num_users = 3;
  cfg.num_rbs = 4;
  cfg.num_slots = 20;
  const qos::RrmReport r =
      qos::run_scheduler(cfg, qos::SchedulerPolicy::kProportionalFair);
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.mean_rate)) << r.status.to_string();
  EXPECT_LE(r.slots_completed, cfg.num_slots);
}

void run_robust_boxqp_workload() {
  RCR_CHAOS_TRACE();
  num::Rng rng(21);
  const num::Matrix p = opt::random_psd(3, 3, rng) + num::Matrix::identity(3);
  const Vec q = rng.normal_vec(3);
  const opt::RobustBoxQpResult r =
      opt::solve_box_qp_robust(p, q, Vec(3, -1.0), Vec(3, 1.0));
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x)) << r.status.to_string();
  for (const double v : r.x) {
    EXPECT_GE(v, -1.0 - 1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

void run_serve_workload() {
  RCR_CHAOS_TRACE();
  serve::WorkloadConfig wc;
  wc.num_cells = 2;
  wc.num_rbs = 5;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.seed = 11;
  serve::DiurnalWorkload wl(wc);
  serve::AllocationService service(serve::ServiceConfig{}, wc.num_cells);
  for (std::size_t t = 0; t < 3; ++t) {
    wl.advance(t);
    const serve::TickReport report = service.tick(t, wl);
    EXPECT_EQ(report.cells, wc.num_cells);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const serve::CellAllocation& a = service.allocation(c);
      EXPECT_TRUE(a.status.usable()) << a.status.to_string();
      EXPECT_TRUE(robust::all_finite(a.power)) << a.status.to_string();
      EXPECT_EQ(a.power.size(), wc.num_rbs);
    }
  }
}

void run_serve_overload_workload() {
  // The overload-control sites are inert under the default config; this
  // workload arms admission, breakers, and the watchdog so serve.admit.*,
  // serve.breaker.*, and serve.solve.* actually guard live code paths.
  RCR_CHAOS_TRACE();
  serve::WorkloadConfig wc;
  wc.num_cells = 3;
  wc.num_rbs = 5;
  wc.min_users = 2;
  wc.peak_users = 3;
  wc.seed = 11;
  serve::ServiceConfig sc;
  sc.admission.enabled = true;
  sc.admission.max_solves_per_tick = 2;
  sc.admission.cell_slices = {qos::ServiceClass::kUrllc,
                              qos::ServiceClass::kEmbb,
                              qos::ServiceClass::kMmtc};
  sc.breaker.enabled = true;
  sc.breaker.failure_threshold = 2;
  sc.breaker.open_ticks = 2;
  sc.watchdog.enabled = true;
  sc.watchdog.quarantine_ticks = 2;
  serve::DiurnalWorkload wl(wc);
  serve::AllocationService service(sc, wc.num_cells);
  for (std::size_t t = 0; t < 4; ++t) {
    wl.advance(t);
    const serve::TickReport report = service.tick(t, wl);
    EXPECT_EQ(report.cells, wc.num_cells);
    for (std::size_t c = 0; c < wc.num_cells; ++c) {
      const serve::CellAllocation& a = service.allocation(c);
      EXPECT_TRUE(a.status.usable()) << a.status.to_string();
      EXPECT_TRUE(robust::all_finite(a.power)) << a.status.to_string();
      EXPECT_TRUE(std::isfinite(a.sum_rate)) << a.status.to_string();
      EXPECT_EQ(a.power.size(), wc.num_rbs);
    }
  }
}

// Routes each site to a workload that passes through it.
void run_workload_for_site(const std::string& site) {
  if (site.rfind("admm.", 0) == 0 || site == "numerics.lu.singular") {
    run_admm_workload();
    run_robust_boxqp_workload();
  } else if (site.rfind("sdp.", 0) == 0) {
    run_sdp_workload();
  } else if (site.rfind("qcqp.", 0) == 0) {
    run_qcqp_workload();
  } else if (site.rfind("lbfgs.", 0) == 0) {
    run_lbfgs_workload();
  } else if (site.rfind("tr.", 0) == 0) {
    run_trust_region_workload();
  } else if (site.rfind("pso.", 0) == 0) {
    run_pso_workload();
  } else if (site.rfind("verify.", 0) == 0) {
    run_verify_workload();
  } else if (site.rfind("qos.", 0) == 0) {
    run_qos_workload();
  } else if (site.rfind("rrm.", 0) == 0) {
    run_rrm_workload();
  } else if (site.rfind("serve.admit.", 0) == 0 ||
             site.rfind("serve.breaker.", 0) == 0 ||
             site.rfind("serve.solve.", 0) == 0) {
    run_serve_overload_workload();
  } else if (site.rfind("serve.", 0) == 0) {
    run_serve_workload();
  } else if (site.rfind("stack.", 0) == 0) {
    // The full stack is exercised by its own test below (expensive); here
    // the site's glob simply must not break the cheap workloads.
    run_qos_workload();
  } else {
    FAIL() << "registered site with no chaos workload: " << site
           << " -- add a route here when adding injection sites";
  }
}

// ---- The per-site sweep: the acceptance gate for the fault registry.

TEST(Chaos, EverySiteYieldsDegradedButValidAnswers) {
  for (const std::string& site : faults::registered_sites()) {
    SCOPED_TRACE("site: " + site);
    faults::ScopedFaults scope(spec_for(site));
    run_workload_for_site(site);
  }
}

TEST(Chaos, InjectionsActuallyFireAtCoreSites) {
  // Guard against silently-dead injection points: for these sites the
  // workload is known to pass through the guarded code.
  const std::pair<const char*, void (*)()> wired[] = {
      {"admm.iterate.nan", &run_admm_workload},
      {"admm.deadline", &run_admm_workload},
      {"sdp.iterate.nan", &run_sdp_workload},
      {"sdp.deadline", &run_sdp_workload},
      {"qcqp.deadline", &run_qcqp_workload},
      {"lbfgs.gradient.nan", &run_lbfgs_workload},
      {"lbfgs.deadline", &run_lbfgs_workload},
      {"tr.step.nan", &run_trust_region_workload},
      {"tr.deadline", &run_trust_region_workload},
      {"pso.objective.nan", &run_pso_workload},
      {"pso.deadline", &run_pso_workload},
      {"verify.crown.nan", &run_verify_workload},
      {"rrm.deadline", &run_rrm_workload},
      {"serve.admit.shed", &run_serve_overload_workload},
      {"serve.breaker.trip", &run_serve_overload_workload},
      {"serve.solve.corrupt", &run_serve_overload_workload},
  };
  for (const auto& [site, workload] : wired) {
    SCOPED_TRACE(std::string("site: ") + site);
    faults::ScopedFaults scope(spec_for(site));
    workload();
    EXPECT_GT(faults::injection_count(site), 0u) << site;
  }
}

TEST(Chaos, NanInjectionDegradesCrownToIbp) {
  faults::ScopedFaults scope(spec_for("verify.crown.nan"));
  RCR_CHAOS_TRACE();
  num::Rng rng(7);
  const verify::ReluNetwork net =
      verify::ReluNetwork::random({2, 8, 3}, rng);
  const verify::Box input = verify::Box::around(Vec{0.0, 0.0}, 0.05);
  const verify::RobustBounds b = verify::compute_bounds_robust(net, input);
  EXPECT_EQ(b.method, verify::BoundMethod::kIbp);
  EXPECT_EQ(b.status.code, StatusCode::kDegraded);
  ASSERT_FALSE(b.status.trail.empty());
  EXPECT_NE(b.status.trail[0].find("crown"), std::string::npos);
  EXPECT_TRUE(robust::all_finite(b.bounds.output.lower));
}

TEST(Chaos, PsoQuarantinesNanParticlesDeterministically) {
  pso::PsoConfig cfg;
  cfg.swarm_size = 8;
  cfg.max_iterations = 20;
  cfg.seed = 9;
  Vec first;
  std::size_t first_quarantines = 0;
  {
    faults::ScopedFaults scope(spec_for("pso.objective.nan", ",rate=0.2"));
    RCR_CHAOS_TRACE();
    const pso::PsoResult r = pso::minimize(pso::sphere(3), cfg);
    EXPECT_GT(r.nan_quarantines, 0u);
    EXPECT_TRUE(robust::all_finite(r.best_position));
    first = r.best_position;
    first_quarantines = r.nan_quarantines;
  }
  // Same seed, same injections, same answer: schedule-independent.
  {
    faults::ScopedFaults scope(spec_for("pso.objective.nan", ",rate=0.2"));
    RCR_CHAOS_TRACE();
    const pso::PsoResult r = pso::minimize(pso::sphere(3), cfg);
    EXPECT_EQ(r.nan_quarantines, first_quarantines);
    ASSERT_EQ(r.best_position.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      EXPECT_EQ(r.best_position[i], first[i]) << i;
  }
}

TEST(Chaos, AdmmSingularFactorWalksTheRidgeLadder) {
  faults::ScopedFaults scope(spec_for("admm.factor.singular", ",max=1"));
  RCR_CHAOS_TRACE();
  num::Rng rng(3);
  const num::Matrix p = opt::random_psd(4, 4, rng) + num::Matrix::identity(4);
  const Vec q = rng.normal_vec(4);
  const opt::AdmmResult r =
      opt::admm_box_qp(p, q, Vec(4, -1.0), Vec(4, 1.0));
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_FALSE(r.status.trail.empty()) << r.status.to_string();
  EXPECT_TRUE(robust::all_finite(r.x));
}

TEST(Chaos, SdpKktInjectionDrivesLeastSquaresRecovery) {
  faults::ScopedFaults scope(spec_for("sdp.kkt.singular", ",max=1"));
  RCR_CHAOS_TRACE();
  opt::Sdp p;
  p.c = num::Matrix::diag({1.0, 2.0, 3.0});
  p.a_eq.push_back(num::Matrix::identity(3));
  p.b_eq.push_back(1.0);
  const opt::SdpResult r = opt::solve_sdp(p);
  EXPECT_TRUE(r.status.usable()) << r.status.to_string();
  EXPECT_FALSE(r.status.trail.empty()) << r.status.to_string();
  EXPECT_GT(faults::injection_count("sdp.kkt.singular"), 0u);
}

TEST(Chaos, StackDeadlineInjectionSkipsPhasesNotAnswers) {
  faults::ScopedFaults scope(spec_for("stack.deadline"));
  RCR_CHAOS_TRACE();
  // rate=1 fires at the first inter-phase boundary, so only the cheap
  // phase 3 runs and the heavy training phases are skipped -- exactly the
  // degradation contract, and it keeps this test fast.
  core::RcrStackConfig cfg;
  cfg.image_size = 8;
  cfg.train_per_class = 2;
  cfg.test_per_class = 1;
  cfg.pso_swarm = 2;
  cfg.pso_iterations = 1;
  cfg.tuning_epochs = 1;
  cfg.final_epochs = 1;
  cfg.certify_epochs = 1;
  core::RcrStack stack(cfg);
  const core::RcrStackReport r = stack.run();
  EXPECT_EQ(r.status.code, StatusCode::kDeadlineExpired);
  EXPECT_GE(r.phases_completed, 1u);
  EXPECT_LT(r.phases_completed, 5u);
  EXPECT_NE(r.status.detail.find("phase"), std::string::npos)
      << r.status.detail;
  EXPECT_TRUE(std::isfinite(r.inertia_qp_consistency));
}

TEST(Chaos, RandomizedMultiSiteSweepNeverCrashes) {
  // Fractional rate across every site at once, several decision streams.
  for (std::uint64_t round = 0; round < 3; ++round) {
    faults::ScopedFaults scope(
        "seed=" + std::to_string(chaos_seed() + round) + ",rate=0.3");
    SCOPED_TRACE("replay: RCR_FAULTS=\"" + faults::replay_spec() + "\"");
    run_admm_workload();
    run_sdp_workload();
    run_qcqp_workload();
    run_lbfgs_workload();
    run_trust_region_workload();
    run_pso_workload();
    run_verify_workload();
    run_qos_workload();
    run_rrm_workload();
    run_robust_boxqp_workload();
  }
}

}  // namespace
}  // namespace rcr
