// Declarative fallback chains: degrade to a looser-but-sound solver instead
// of failing the request.
//
// The paper's Sec. IV-C relaxation ladder (QCQP -> RMP -> TMP -> SDP) and
// the verify/ hierarchy (CROWN -> IBP) share one shape: an ordered list of
// solvers, tight first, each of which may fail at runtime; the first fully
// successful step answers, and if none succeeds the first *usable* degraded
// answer does.  The executor records, per step, why its predecessor failed,
// and tags the final answer with the soundness level of the step that
// produced it.
#pragma once

#include <bitset>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rcr/obs/obs.hpp"
#include "rcr/robust/budget.hpp"
#include "rcr/robust/status.hpp"

namespace rcr::robust {

/// Most steps one chain may hold (the width of the ChainOutcome masks).
inline constexpr std::size_t kMaxChainSteps = 32;

/// One bit per chain step; bit i is the i-th step added.
using StepMask = std::bitset<kMaxChainSteps>;

/// Outcome of running a chain.
template <typename T>
struct ChainOutcome {
  T value{};
  Status status;           ///< Aggregated; trail names every fallback taken.
  std::string step;        ///< Name of the step that produced `value`.
  Soundness soundness = Soundness::kHeuristic;  ///< Of the winning step.
  std::size_t attempts = 0;  ///< Steps actually executed.
  /// One bit per "failed" / "skipped" trail line: the step ran and did not
  /// fully succeed (a banked winner keeps its bit) / its gate turned it away.
  /// Steps the deadline cut off or the chain never reached set neither.
  StepMask failed;
  StepMask skipped;
};

/// Ordered list of solver attempts, tightest first.
template <typename T>
class FallbackChain {
 public:
  using StepFn = std::function<Result<T>()>;
  /// Pre-run gate: nullptr/absent = always run; otherwise return nullptr to
  /// run the step or a static-ish reason string ("breaker open") to skip it.
  using GateFn = std::function<const char*()>;

  /// `name` labels this chain in metrics/traces
  /// (rcr.fallback.degraded{chain=name}); it must have static storage
  /// duration -- every in-tree chain passes a string literal.
  explicit FallbackChain(const char* name = "unnamed") : name_(name) {}

  const char* name() const { return name_; }

  /// Append a step.  Steps run in insertion order.
  FallbackChain& add(std::string name, Soundness soundness, StepFn run) {
    return add_gated(std::move(name), soundness, nullptr, std::move(run));
  }

  /// Append a gated step: `gate` is consulted before each run, and a
  /// non-null reason skips the step without executing it (no attempt, no
  /// degradation counter -- a skip is a policy decision, not a failure).
  /// Circuit breakers plug in here.
  /// Throws std::length_error past kMaxChainSteps steps.
  FallbackChain& add_gated(std::string name, Soundness soundness, GateFn gate,
                           StepFn run) {
    if (steps_.size() == kMaxChainSteps)
      throw std::length_error("FallbackChain: more than kMaxChainSteps steps");
    steps_.push_back({std::move(name), soundness, std::move(gate),
                      std::move(run)});
    return *this;
  }

  std::size_t size() const { return steps_.size(); }

  /// Execute: first step whose Result is fully ok wins.  A usable-but-
  /// degraded result is banked and returned (code kDegraded) only when no
  /// later step fully succeeds.  When the deadline fires between steps the
  /// remaining steps are skipped.  When nothing usable was produced the
  /// outcome is kFallbackExhausted and `value` is default-constructed.
  ChainOutcome<T> run(const Deadline& deadline = Deadline()) const {
    obs::Span span("fallback.run");
    span.attr_str("chain", name_);
    ChainOutcome<T> out = run_impl(deadline);
    span.attr("attempts", static_cast<double>(out.attempts));
    span.attr("degraded",
              out.status.code == StatusCode::kOk ? 0.0 : 1.0);
    if (!out.step.empty()) span.attr_str("step", out.step.c_str());
    // Depth taken by this solve: 1 = the tight head answered, deeper values
    // mean degradation (Prometheus: rcr_fallback_depth{chain=...}).  The
    // degradation *counters* above tick per failed step; this gauge makes
    // the depth of the most recent solve visible directly.
    obs::gauge_set("rcr.fallback.depth", "chain", name_,
                   static_cast<double>(out.attempts));
    return out;
  }

 private:
  ChainOutcome<T> run_impl(const Deadline& deadline) const {
    ChainOutcome<T> out;
    bool have_banked = false;
    ChainOutcome<T> banked;

    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const Step& step = steps_[i];
      if (deadline.expired()) {
        out.status.note("deadline expired before step '" + step.name + "'");
        break;
      }
      if (step.gate) {
        if (const char* reason = step.gate()) {
          // Skipped, not failed: no attempt, no degradation counter.  The
          // trail still records the decision so graders can audit it.
          out.status.note("step '" + step.name + "' skipped (" +
                          std::string(reason) + ")");
          out.skipped.set(i);
          obs::counter_add("rcr.fallback.skipped", "chain", name_);
          continue;
        }
      }
      ++out.attempts;
      Result<T> r = step.run();
      if (r.status.ok()) {
        out.value = std::move(r.value);
        out.step = step.name;
        out.soundness = step.soundness;
        // A first-step clean win is kOk; anything later is a degradation.
        if (i > 0 || !out.status.trail.empty())
          out.status.code = StatusCode::kDegraded;
        return out;
      }
      out.status.note("step '" + step.name + "' failed (" +
                      r.status.to_string() + ")");
      out.failed.set(i);
      // One degradation step == one counter increment (chaos contract).
      obs::counter_add("rcr.fallback.degraded", "chain", name_);
      obs::instant("fallback.degraded", "chain", name_);
      if (r.status.usable() && !have_banked) {
        banked.value = std::move(r.value);
        banked.step = step.name;
        banked.soundness = step.soundness;
        banked.status = r.status;
        have_banked = true;
      }
    }

    if (have_banked) {
      ChainOutcome<T> degraded = std::move(banked);
      degraded.attempts = out.attempts;
      degraded.failed = out.failed;
      degraded.skipped = out.skipped;
      Status merged = make_status(
          StatusCode::kDegraded,
          "no step fully converged; returning usable result from '" +
              degraded.step + "' (" + to_string(degraded.status.code) + ")");
      merged.trail = out.status.trail;
      degraded.status = std::move(merged);
      return degraded;
    }

    out.status.code = StatusCode::kFallbackExhausted;
    out.status.detail = "every fallback step failed";
    return out;
  }

  struct Step {
    std::string name;
    Soundness soundness;
    GateFn gate;  ///< Optional; non-null reason skips the step.
    StepFn run;
  };
  const char* name_;
  std::vector<Step> steps_;
};

}  // namespace rcr::robust
