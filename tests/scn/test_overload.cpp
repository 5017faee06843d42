// The overload fleet gate (DESIGN.md §15): priority-inversion scoring,
// the 288-scenario overload fleet with zero unsound/fail verdicts, and the
// headline acceptance property — under a 4x load spike plus a serve.* fault
// storm, the URLLC slice holds its no-overload SLA while lower-priority
// slices degrade first.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../fan_out_leg.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/scn/dsl.hpp"
#include "rcr/scn/grader.hpp"

namespace rcr::scn {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) previous_ = prev;
    had_previous_ = prev != nullptr;
    ::setenv(name, value.c_str(), 1);
  }
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) previous_ = prev;
    had_previous_ = prev != nullptr;
    ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_previous_)
      ::setenv(name_, previous_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string previous_;
  bool had_previous_ = false;
};

TEST(PriorityInversion, HighPriorityStaleWhileLowPriorityFreshIsInverted) {
  // Cell 0 is URLLC (rank 0) involuntarily stale; cell 1 is mMTC (rank 2)
  // served fresh: admission inverted the priority order.
  EXPECT_TRUE(priority_inversion({0, 2}, {false, true}, {true, false}));
}

TEST(PriorityInversion, LowPriorityStaleIsTheIntendedDegradation) {
  EXPECT_FALSE(priority_inversion({0, 2}, {true, false}, {false, true}));
}

TEST(PriorityInversion, EqualRanksNeverInvert) {
  EXPECT_FALSE(priority_inversion({1, 1}, {false, true}, {true, false}));
}

TEST(PriorityInversion, VoluntaryStalenessIsExempt) {
  // Stale but not involuntary (injected fault or quarantine): no inversion.
  EXPECT_FALSE(priority_inversion({0, 2}, {false, true}, {false, false}));
}

TEST(PriorityInversion, NothingFreshMeansNoInversion) {
  EXPECT_FALSE(priority_inversion({0, 2}, {false, false}, {true, true}));
}

ScenarioSpec overload_spec(OverloadLeg leg, const std::string& faults) {
  ScenarioSpec spec;
  spec.index = 0;
  spec.seed = 0x9e3779b97f4a7c15ull;
  spec.cells = 6;
  spec.users_per_cell = 3;
  spec.rbs = 6;
  spec.ticks = 9;
  spec.slices = SliceMix{true, true, true};  // cells cycle E, U, M
  spec.handover_rate = 0.0;
  spec.traffic = Traffic::kStatic;
  spec.faults = faults;
  spec.overload = leg;
  return spec;
}

TEST(OverloadFleet, CardinalityAndAxes) {
  const ScopedEnv scrub_only("RCR_SCN_ONLY");
  const ScopedEnv scrub_seed("RCR_SCN_SEED");
  const ScopedEnv scrub_cap("RCR_SCN_FLEET");
  const FleetSpec fleet_spec = overload_fleet();
  EXPECT_EQ(fleet_spec.cardinality(), 288u);
  const std::vector<ScenarioSpec> fleet = fleet_spec.enumerate();
  ASSERT_EQ(fleet.size(), 288u);
  bool saw_spike = false, saw_brownout = false, saw_storm = false;
  for (const ScenarioSpec& spec : fleet) {
    EXPECT_NE(spec.overload, OverloadLeg::kNone);
    saw_spike |= spec.overload == OverloadLeg::kLoadSpike;
    saw_brownout |= spec.overload == OverloadLeg::kBrownout;
    saw_storm |= !spec.faults.empty();
  }
  EXPECT_TRUE(saw_spike);
  EXPECT_TRUE(saw_brownout);
  EXPECT_TRUE(saw_storm);
}

// The overload conformance gate: every leg (baseline, 4x spike, brownout),
// with and without the serve.* storm, grades without a single unsound or
// failed verdict — overload policy degrades lower slices first, never
// inverts priority, and never breaks the soundness contract.
TEST(OverloadFleet, GradesWithZeroUnsoundAndZeroFail) {
  const FleetSpec fleet_spec = overload_fleet();
  const std::uint64_t fleet_seed = fleet_spec.fleet_seed();
  const std::vector<ScenarioSpec> fleet = fleet_spec.enumerate();
  if (!env_only_index() && !env_fleet_cap()) {
    ASSERT_EQ(fleet.size(), 288u);
  }

  const FleetReport report = grade_fleet(fleet, fleet_seed);
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const ScenarioVerdict& v = report.verdicts[i];
    if (v.verdict == Verdict::kUnsound || v.verdict == Verdict::kFail) {
      ADD_FAILURE() << to_string(v.verdict) << " scenario "
                    << fleet[i].show() << "\n  " << v.detail
                    << "\n  replay: " << fleet[i].replay_line(fleet_seed);
    }
  }
  EXPECT_EQ(report.unsound, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.passed + report.degraded + report.failed + report.unsound,
            fleet.size());
}

// The acceptance property from the issue: same scenario, same fault storm,
// baseline vs 4x load spike.  The URLLC slice's SLA must hold at or above
// its no-overload baseline while the lower slices absorb the degradation
// (freshness ordered URLLC >= eMBB >= mMTC under admission pressure).
TEST(OverloadFleet, UrllcSlaSurvivesTheLoadSpikeLowerSlicesDegradeFirst) {
  const std::string storm = "sites=serve.*,rate=0.4";
  const ScenarioVerdict baseline =
      grade_scenario(overload_spec(OverloadLeg::kBaseline, storm));
  const ScenarioVerdict spiked =
      grade_scenario(overload_spec(OverloadLeg::kLoadSpike, storm));

  constexpr std::size_t kEmbb = 0, kUrllc = 1, kMmtc = 2;
  EXPECT_NE(spiked.verdict, Verdict::kUnsound) << spiked.detail;
  EXPECT_NE(spiked.verdict, Verdict::kFail) << spiked.detail;
  EXPECT_GE(spiked.sla_by_class[kUrllc], baseline.sla_by_class[kUrllc])
      << "the highest-priority slice lost SLA under overload";
  EXPECT_GE(spiked.fresh_by_class[kUrllc], spiked.fresh_by_class[kEmbb]);
  EXPECT_LT(spiked.fresh_by_class[kMmtc], 1.0)
      << "a 4x spike over a cells/2 budget must defer someone";

  // Admission pressure lands strictly bottom-up on the fault-free pair
  // (injected serve.admit.shed faults hand freed budget slots down the rank
  // order, which can locally reshuffle eMBB vs mMTC freshness).
  const ScenarioVerdict clean =
      grade_scenario(overload_spec(OverloadLeg::kLoadSpike, ""));
  EXPECT_NE(clean.verdict, Verdict::kUnsound) << clean.detail;
  EXPECT_GE(clean.fresh_by_class[kUrllc], clean.fresh_by_class[kEmbb]);
  EXPECT_GE(clean.fresh_by_class[kEmbb], clean.fresh_by_class[kMmtc]);
  EXPECT_EQ(clean.fresh_by_class[kUrllc], 1.0)
      << "URLLC cells fit inside the cells/2 budget and must stay fresh";
}

TEST(OverloadFleet, BrownoutLegGradesSoundAndDeterministic) {
  const ScenarioSpec spec = overload_spec(OverloadLeg::kBrownout,
                                          "sites=serve.*,rate=0.4");
  const ScenarioVerdict v = grade_scenario(spec);
  EXPECT_NE(v.verdict, Verdict::kUnsound) << v.detail;
  EXPECT_NE(v.verdict, Verdict::kFail) << v.detail;

  const ScenarioVerdict again = grade_scenario(spec);
  EXPECT_EQ(v.points, again.points);
  EXPECT_EQ(v.solution_hash, again.solution_hash);
}

TEST(OverloadFleet, GradesByteIdenticalSerialVsParallel) {
  const ScopedEnv scrub_only("RCR_SCN_ONLY");
  const ScopedEnv scrub_seed("RCR_SCN_SEED");
  const ScopedEnv cap("RCR_SCN_FLEET", "24");
  const FleetSpec fleet_spec = overload_fleet();
  const std::uint64_t fleet_seed = fleet_spec.fleet_seed();
  const std::vector<ScenarioSpec> fleet = fleet_spec.enumerate();
  ASSERT_GE(fleet.size(), 16u);

  std::string serial_report;
  {
    rt::ForceSerialGuard serial;
    serial_report = report_json(grade_fleet(fleet, fleet_seed), fleet);
  }
  test_support::FanOutLeg leg;
  const std::string parallel_report =
      report_json(grade_fleet(fleet, fleet_seed), fleet);
  EXPECT_GT(leg.tasks(), 0u) << "parallel leg never dispatched";
  EXPECT_EQ(serial_report, parallel_report)
      << "admission/breaker/brownout decisions drifted across RCR_THREADS";
}

TEST(OverloadShrink, DropsTheOverloadLeg) {
  const ScenarioSpec spec = overload_spec(OverloadLeg::kLoadSpike, "");
  bool dropped = false;
  for (const ScenarioSpec& candidate : shrink(spec))
    if (candidate.overload == OverloadLeg::kNone) dropped = true;
  EXPECT_TRUE(dropped);
}

}  // namespace
}  // namespace rcr::scn
