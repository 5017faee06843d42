// Verdict grader semantics: clean scenarios pass, fault legs degrade
// soundly, fragment validation, determinism of verdicts and reports.
#include "rcr/scn/grader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rcr/scn/dsl.hpp"

namespace rcr::scn {
namespace {

ScenarioSpec clean_spec() {
  ScenarioSpec spec;
  spec.index = 0;
  spec.seed = 0x5ca1ab1e;
  spec.cells = 3;
  spec.users_per_cell = 3;
  spec.rbs = 6;
  spec.ticks = 6;
  spec.slices = SliceMix{true, false, false};
  spec.traffic = Traffic::kStatic;
  return spec;
}

TEST(Grader, CleanStaticScenarioScoresFullPoints) {
  const ScenarioVerdict v = grade_scenario(clean_spec());
  EXPECT_EQ(v.verdict, Verdict::kPass) << v.detail;
  EXPECT_DOUBLE_EQ(v.points, 100.0);
  EXPECT_EQ(v.unsound_degradations, 0u);
  EXPECT_LE(v.feasibility_residual, 1e-9);
  EXPECT_DOUBLE_EQ(v.sla_satisfaction, 1.0);
  EXPECT_DOUBLE_EQ(v.deadline_hit_rate, 1.0);
  EXPECT_EQ(v.cell_ticks, clean_spec().cells * clean_spec().ticks);
  EXPECT_GT(v.sla_checks, 0u);
  EXPECT_GT(v.fleet_sum_rate, 0.0);
  EXPECT_TRUE(v.detail.empty());
}

TEST(Grader, UrllcStarvationGradesDegradedNotUnsound) {
  // The service maximizes sum rate, so a lone URLLC user holding the weakest
  // gains in its cell can be starved of every resource block.  The rubric
  // must call that a degraded SLA outcome -- never an unsound one.
  ScenarioSpec spec = clean_spec();
  spec.slices = SliceMix{true, true, false};
  const ScenarioVerdict v = grade_scenario(spec);
  ASSERT_EQ(v.verdict, Verdict::kDegraded) << v.detail;
  EXPECT_EQ(v.unsound_degradations, 0u);
  EXPECT_LT(v.sla_satisfaction, 1.0);
  EXPECT_LT(v.points, 100.0);
  EXPECT_GE(v.points, kSoundnessPoints);
  EXPECT_NE(v.detail.find("URLLC below its aggregate SLA floor"),
            std::string::npos)
      << v.detail;
}

TEST(Grader, VerdictIsDeterministic) {
  const ScenarioSpec spec = clean_spec();
  const ScenarioVerdict a = grade_scenario(spec);
  const ScenarioVerdict b = grade_scenario(spec);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.solution_hash, b.solution_hash);
  EXPECT_EQ(a.feasibility_residual, b.feasibility_residual);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.detail, b.detail);
}

TEST(Grader, FaultLegDegradesButStaysSound) {
  ScenarioSpec spec = clean_spec();
  spec.faults = "sites=serve.*,rate=0.5";
  const ScenarioVerdict v = grade_scenario(spec);
  // Injected RAT outages push cells down the chain: the verdict drops below
  // pass but every degradation must stay soundness-tagged-valid.
  EXPECT_EQ(v.unsound_degradations, 0u) << v.detail;
  EXPECT_NE(v.verdict, Verdict::kUnsound);
  EXPECT_GT(v.degraded, 0u) << "rate=0.5 over serve.* never degraded a cell";
  EXPECT_LT(v.deadline_hit_rate, 1.0);
  EXPECT_LT(v.points, 100.0);
  // The grader still awards the full soundness slice.
  EXPECT_GE(v.points, kSoundnessPoints);
}

TEST(Grader, FaultInjectionIsPartOfTheScenarioSeed) {
  ScenarioSpec spec = clean_spec();
  spec.faults = "sites=serve.*,rate=0.5";
  const ScenarioVerdict a = grade_scenario(spec);
  const ScenarioVerdict b = grade_scenario(spec);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.solution_hash, b.solution_hash);

  spec.seed ^= 1;  // a different case seed redraws the injection stream
  const ScenarioVerdict c = grade_scenario(spec);
  EXPECT_NE(a.solution_hash, c.solution_hash);
}

TEST(Grader, NonServeFaultFragmentsAreRejected) {
  ScenarioSpec spec = clean_spec();
  spec.faults = "sites=admm.*,rate=0.5";
  EXPECT_THROW(grade_scenario(spec), std::invalid_argument);
  spec.faults = "rate=0.5";  // defaults to sites=* -- every module
  EXPECT_THROW(grade_scenario(spec), std::invalid_argument);
  spec.faults = "sites=serve.*,max=3";  // fired-count caps are schedule-bound
  EXPECT_THROW(grade_scenario(spec), std::invalid_argument);
  spec.faults = "sites=serve.*,seed=7";  // the grader owns the seed
  EXPECT_THROW(grade_scenario(spec), std::invalid_argument);
}

TEST(Grader, ArmedWallClockDeadlineIsRejected) {
  GraderOptions options;
  options.service.tick_deadline_s = 0.01;
  EXPECT_THROW(grade_scenario(clean_spec(), options), std::invalid_argument);
}

TEST(Grader, FleetAggregationCountsEveryVerdict) {
  const std::vector<ScenarioSpec> fleet = FleetSpec().enumerate();
  const FleetReport report = grade_fleet(fleet, 1234);
  ASSERT_EQ(report.verdicts.size(), fleet.size());
  EXPECT_EQ(report.passed + report.degraded + report.failed + report.unsound,
            fleet.size());
  EXPECT_EQ(report.fleet_seed, 1234u);
  EXPECT_GT(report.mean_points, 0.0);
  EXPECT_LE(report.min_points, report.mean_points);
}

TEST(Grader, ReportJsonIsByteIdenticalAcrossRuns) {
  const std::vector<ScenarioSpec> fleet =
      FleetSpec().rat_outage({"", "sites=serve.*,rate=0.25"}).enumerate();
  const std::uint64_t fseed = 77;
  const std::string a = report_json(grade_fleet(fleet, fseed), fleet);
  const std::string b = report_json(grade_fleet(fleet, fseed), fleet);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"fleet_seed\": 77"), std::string::npos);
  EXPECT_NE(a.find("\"results\": ["), std::string::npos);
}

TEST(Grader, EachSoundnessRuleFiresOnItsCraftedAllocation) {
  // A sound two-RB ADMM answer; each row breaks exactly one rule.
  serve::CellAllocation head;
  head.assignment = {0, 1};
  head.power = {0.5, 0.5};
  head.sum_rate = 1.0;
  head.step = "admm";
  const auto with = [&](auto&& edit) {
    serve::CellAllocation a = head;
    edit(a);
    return a;
  };
  const auto degraded = [](serve::CellAllocation& a, const char* step,
                           std::uint8_t fell_through) {
    a.step = step;
    a.fell_through = fell_through;
    a.status.code = robust::StatusCode::kDegraded;
    a.status.note("step 'admm' failed (injected)");
  };
  struct Row {
    const char* rule;
    serve::CellAllocation alloc;
    std::string defect;
  };
  const Row rows[] = {
      {"sound head", head, ""},
      {"unusable status",
       with([](serve::CellAllocation& a) {
         a.status = robust::make_status(
             robust::StatusCode::kFallbackExhausted, "nothing ran");
       }),
       "unusable status fallback-exhausted: nothing ran"},
      {"empty step", with([](serve::CellAllocation& a) { a.step.clear(); }),
       "allocation carries no producing step"},
      {"non-finite power",
       with([](serve::CellAllocation& a) {
         a.power[1] = std::numeric_limits<double>::infinity();
       }),
       "non-finite or negative allocation from step 'admm'"},
      {"length mismatch",
       with([](serve::CellAllocation& a) { a.assignment.pop_back(); }),
       "assignment length mismatch"},
      {"equal-power after one fall-through",
       with([&](serve::CellAllocation& a) { degraded(a, "equal-power", 1); }),
       "heuristic equal-power answered without a recorded failure of both "
       "sound steps"},
      {"equal-power after both",
       with([&](serve::CellAllocation& a) { degraded(a, "equal-power", 3); }),
       ""},
      {"waterfill without admm bit",
       with([&](serve::CellAllocation& a) { degraded(a, "waterfill", 2); }),
       "waterfill answered without a recorded admm failure"},
      {"waterfill after admm",
       with([&](serve::CellAllocation& a) { degraded(a, "waterfill", 1); }),
       ""},
      {"snapshot without marker",
       with([&](serve::CellAllocation& a) { degraded(a, "snapshot", 0); }),
       "snapshot-served step 'snapshot' carries no degraded: trail marker"},
      {"degraded step with empty trail",
       with([](serve::CellAllocation& a) { a.step = "deadline-fill"; }),
       "degraded step 'deadline-fill' carries an empty degradation trail"},
  };
  for (const Row& row : rows)
    EXPECT_EQ(soundness_defect(row.alloc, 2), row.defect) << row.rule;
}

TEST(Grader, ReportJsonSizeMismatchThrows) {
  const std::vector<ScenarioSpec> fleet = FleetSpec().enumerate();
  FleetReport report = grade_fleet(fleet, 1);
  report.verdicts.pop_back();
  EXPECT_THROW(report_json(report, fleet), std::invalid_argument);
}

}  // namespace
}  // namespace rcr::scn
