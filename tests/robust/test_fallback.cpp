#include "rcr/robust/fallback.hpp"

#include <gtest/gtest.h>

namespace rcr::robust {
namespace {

Result<int> ok_result(int v) { return {v, ok_status()}; }

Result<int> failed(StatusCode code, const char* why) {
  return {0, make_status(code, why)};
}

TEST(FallbackChain, FirstStepCleanWinIsOk) {
  FallbackChain<int> chain;
  chain.add("tight", Soundness::kExact, [] { return ok_result(1); })
      .add("loose", Soundness::kHeuristic, [] { return ok_result(2); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 1);
  EXPECT_EQ(out.step, "tight");
  EXPECT_EQ(out.soundness, Soundness::kExact);
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 1u);
}

TEST(FallbackChain, SecondStepWinIsDegradedAndTrailNamesTheFailure) {
  FallbackChain<int> chain;
  chain.add("tight", Soundness::kExact,
            [] { return failed(StatusCode::kSingular, "KKT degenerate"); })
      .add("loose", Soundness::kRelaxation, [] { return ok_result(2); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 2);
  EXPECT_EQ(out.step, "loose");
  EXPECT_EQ(out.soundness, Soundness::kRelaxation);
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_FALSE(out.status.trail.empty());
  EXPECT_NE(out.status.trail[0].find("tight"), std::string::npos);
  EXPECT_NE(out.status.trail[0].find("KKT degenerate"), std::string::npos);
}

TEST(FallbackChain, UsableDegradedAnswerIsBankedWhenNothingFullySucceeds) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return Result<int>{11, make_status(
                     StatusCode::kNonConverged, "budget out")}; })
      .add("b", Soundness::kHeuristic,
           [] { return failed(StatusCode::kInfeasible, "no point"); });
  const ChainOutcome<int> out = chain.run();
  // Step a's answer is usable (non-converged best iterate) and wins.
  EXPECT_EQ(out.value, 11);
  EXPECT_EQ(out.step, "a");
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.attempts, 2u);
}

TEST(FallbackChain, FirstUsableBankWinsOverLaterUsable) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return Result<int>{1, make_status(
                     StatusCode::kNonConverged, "x")}; })
      .add("b", Soundness::kHeuristic,
           [] { return Result<int>{2, make_status(
                    StatusCode::kNonConverged, "y")}; });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.value, 1);
  EXPECT_EQ(out.step, "a");
}

TEST(FallbackChain, ExhaustedWhenNothingUsable) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return failed(StatusCode::kInfeasible, "no point"); })
      .add("b", Soundness::kHeuristic,
           [] { return failed(StatusCode::kFallbackExhausted, "nope"); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.status.code, StatusCode::kFallbackExhausted);
  EXPECT_FALSE(out.status.usable());
  EXPECT_EQ(out.value, 0);  // Default-constructed.
  EXPECT_EQ(out.attempts, 2u);
}

TEST(FallbackChain, ExpiredDeadlineSkipsEveryStep) {
  int runs = 0;
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact, [&] {
    ++runs;
    return ok_result(1);
  });
  const ChainOutcome<int> out = chain.run(Deadline::after_seconds(0.0));
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(out.attempts, 0u);
  EXPECT_EQ(out.status.code, StatusCode::kFallbackExhausted);
  ASSERT_FALSE(out.status.trail.empty());
  EXPECT_NE(out.status.trail[0].find("deadline"), std::string::npos);
}

TEST(FallbackChain, LateStepNotRunAfterEarlyWin) {
  int later_runs = 0;
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact, [] { return ok_result(1); })
      .add("b", Soundness::kHeuristic, [&] {
        ++later_runs;
        return ok_result(2);
      });
  chain.run();
  EXPECT_EQ(later_runs, 0);
}

TEST(FallbackChain, CleanWinAfterPriorTrailEventsIsStillDegraded) {
  // A clean second-step answer is a degradation of the *request* even
  // though the step itself succeeded.
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return failed(StatusCode::kNumericalFailure, "nan"); })
      .add("b", Soundness::kHeuristic, [] { return ok_result(9); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.status.code, StatusCode::kDegraded);
  EXPECT_EQ(out.value, 9);
}

TEST(FallbackChain, FailedAndGatedStepsSetTheirMaskBits) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return failed(StatusCode::kSingular, "KKT degenerate"); })
      .add_gated("b", Soundness::kRelaxation, [] { return "breaker open"; },
                 [] { return ok_result(2); })
      .add("c", Soundness::kHeuristic, [] { return ok_result(3); });
  const ChainOutcome<int> out = chain.run();
  EXPECT_EQ(out.step, "c");
  EXPECT_EQ(out.failed, StepMask().set(0));
  EXPECT_EQ(out.skipped, StepMask().set(1));
  // One bit per failed/skipped trail line.
  EXPECT_EQ(out.failed.count() + out.skipped.count(),
            out.status.trail.size());
}

TEST(FallbackChain, DeadlineCutAndUnreachedStepsSetNoMaskBit) {
  const Deadline deadline = Deadline::after_seconds(0.001);
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact, [&] {
         while (!deadline.expired()) {
         }
         return failed(StatusCode::kInfeasible, "no point");
       })
      .add("b", Soundness::kHeuristic, [] { return ok_result(2); });
  const ChainOutcome<int> cut = chain.run(deadline);
  EXPECT_EQ(cut.status.code, StatusCode::kFallbackExhausted);
  EXPECT_EQ(cut.failed, StepMask().set(0));
  EXPECT_TRUE(cut.skipped.none()) << "a deadline cut-off is not a skip";

  FallbackChain<int> early;
  early.add("a", Soundness::kExact, [] { return ok_result(1); })
      .add("b", Soundness::kHeuristic, [] { return ok_result(2); });
  const ChainOutcome<int> won = early.run();
  EXPECT_TRUE(won.failed.none());
  EXPECT_TRUE(won.skipped.none());
}

TEST(FallbackChain, BankedWinnerKeepsItsFailedBit) {
  FallbackChain<int> chain;
  chain.add("a", Soundness::kExact,
            [] { return Result<int>{11, make_status(
                     StatusCode::kNonConverged, "budget out")}; })
      .add("b", Soundness::kHeuristic,
           [] { return failed(StatusCode::kInfeasible, "no point"); });
  const ChainOutcome<int> out = chain.run();
  ASSERT_EQ(out.step, "a");
  EXPECT_EQ(out.failed, StepMask().set(0).set(1));
  EXPECT_TRUE(out.skipped.none());
}

TEST(FallbackChain, AddingPastTheMaskWidthThrows) {
  FallbackChain<int> chain;
  for (std::size_t i = 0; i < kMaxChainSteps; ++i)
    chain.add("s", Soundness::kHeuristic, [] { return ok_result(0); });
  EXPECT_THROW(
      chain.add("s", Soundness::kHeuristic, [] { return ok_result(0); }),
      std::length_error);
}

}  // namespace
}  // namespace rcr::robust
