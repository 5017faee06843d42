#include "rcr/serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rcr/learn/qp.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/robust/fallback.hpp"
#include "rcr/robust/fault_injection.hpp"
#include "rcr/rt/parallel.hpp"
#include "rcr/rt/scratch_arena.hpp"
#include "rcr/rt/thread_pool.hpp"

namespace rcr::serve {

namespace {

/// Scale `power` so it sums to exactly `budget` (no-op on a zero vector).
void rescale_to_budget(Vec& power, double budget) {
  double total = 0.0;
  for (double& p : power) {
    if (p < 0.0) p = 0.0;
    total += p;
  }
  if (total <= 0.0) return;
  const double scale = budget / total;
  for (double& p : power) p *= scale;
}

// A tick fans out only when each chunk carries this many measured dispatch
// round trips of work (rt::ThreadPool::dispatch_us).  On a 2-thread pool a
// tick fanned out at grain 1 breaks even with the inline tick at about
// 120-200 us of work, 3-18 round trips as the pool measures them: the round
// trip does not price the caches a helper starts cold on, nor the queue and
// latch the caller pays for.  With 16, each fanned-out chunk alone carries
// about break-even work or more, so noise in either estimate does not tip a
// losing tick into fanning out (DESIGN.md §13 "Tick grain" has the
// crossover table).
constexpr double kFanOutMultiple = 16.0;

// Weight of one tick in the running per-cell cost.
constexpr double kCellCostWeight = 0.25;

/// Sum spectral efficiency of an allocation over its per-RB gains.
double sum_rate_of(const Vec& gains, const Vec& power) {
  double rate = 0.0;
  for (std::size_t rb = 0; rb < gains.size(); ++rb)
    rate += std::log2(1.0 + power[rb] * gains[rb]);
  return rate;
}

}  // namespace

std::size_t tick_grain(std::size_t cells, double cell_us, double dispatch_us,
                       std::size_t workers) {
  const std::size_t whole = std::max<std::size_t>(1, cells);
  if (workers == 0 || !(cell_us > 0.0)) return whole;
  const double grain = std::ceil(kFanOutMultiple * dispatch_us / cell_us);
  if (!(grain < static_cast<double>(whole))) return whole;
  return grain > 1.0 ? static_cast<std::size_t>(grain) : 1;
}

AllocationService::AllocationService(const ServiceConfig& config,
                                     std::size_t num_cells)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards),
      warm_(num_cells),
      current_(num_cells),
      runtime_(num_cells),
      brownout_(config.brownout) {
  if (num_cells == 0)
    throw std::invalid_argument("AllocationService: zero cells");
}

void AllocationService::reset_warm_states() {
  for (auto& w : warm_) w.clear();
}

CellAllocation AllocationService::solve_cell(const RraProblem& problem,
                                             std::size_t cell,
                                             std::uint64_t tick,
                                             std::uint64_t stamp,
                                             const robust::Deadline& deadline) {
  // Injection decisions are keyed by the deterministic cell stamp: cells
  // solve on pool threads in schedule-dependent order, and a counter-keyed
  // stream would make which cell degrades depend on that schedule.
  namespace faults = robust::faults;
  CellAllocation alloc;
  const std::uint64_t sig = problem_signature(problem, config_.signature);
  if (config_.cache_enabled && !faults::should_inject("serve.cache.drop", stamp) &&
      cache_.get(sig, stamp, alloc)) {
    alloc.cache_hit = true;
    alloc.iterations = 0;
    alloc.step = "cache";
    return alloc;
  }

  auto arena_scope = rt::tls_arena().scope();
  const std::size_t n = problem.num_rbs();
  const double budget = problem.total_power;
  const qos::Assignment assignment = qos::best_gain_assignment(problem);
  const Vec gains = qos::assigned_gains(problem, assignment);

  // Power model: second-order Taylor expansion of -sum log2(1 + g p) around
  // the equal split p0 = budget / n, in the step variable d = p - p0:
  //   P = diag(g^2 / (ln2 (1 + g p0)^2)) + 2 lambda 1 1^T
  //   q = -g / (ln2 (1 + g p0))
  // with a soft penalty lambda (1^T d)^2 holding the total at the budget and
  // the box d in [-p0, budget - p0] keeping p nonnegative and bounded.
  const double p0 = budget / static_cast<double>(n);
  Vec q(n), lo(n, -p0), hi(n, budget - p0);
  double* curv = rt::tls_arena().alloc<double>(n);
  const double max_curv =
      learn::power_qp_coeffs(gains.data(), n, p0, curv, q.data());
  const double lambda =
      config_.budget_penalty * (max_curv > 0.0 ? max_curv : 1.0);

  Matrix p_mat(n, n, 2.0 * lambda);
  for (std::size_t rb = 0; rb < n; ++rb) p_mat(rb, rb) += curv[rb];

  opt::AdmmWarmState* warm =
      config_.warm_start ? &warm_[cell] : nullptr;

  // Brownout cheapens the head: a BROWNOUT tick caps ADMM iterations, a
  // SHED tick gates the head off entirely.  The state only mutates at the
  // serial tick boundary, so this read is stable across the fan-out.
  const BrownoutState bstate = brownout_.state();
  std::size_t max_iterations = config_.admm_max_iterations;
  if (config_.brownout.enabled && bstate == BrownoutState::kBrownout)
    max_iterations = std::max<std::size_t>(
        8, static_cast<std::size_t>(
               static_cast<double>(max_iterations) *
               config_.brownout.brownout_iteration_factor));

  CellRuntime& rtc = runtime_[cell];
  robust::FallbackChain<CellAllocation> chain("serve.cell");
  chain
      .add_gated(
          "admm", robust::Soundness::kRelaxation,
          [&]() -> const char* {
            if (config_.brownout.enabled && bstate == BrownoutState::kShed)
              return "brownout shed";
            if (config_.breaker.enabled && rtc.admm_breaker.blocked(tick))
              return "breaker open";
            return nullptr;
          },
          [&]() -> robust::Result<CellAllocation> {
             robust::Result<CellAllocation> out;
             if (faults::should_inject("serve.admm.outage", stamp)) {
               out.status = robust::make_status(
                   robust::StatusCode::kNumericalFailure,
                   "injected serve.admm.outage");
               return out;
             }
             if (config_.breaker.enabled &&
                 faults::should_inject("serve.breaker.trip", stamp)) {
               out.status = robust::make_status(
                   robust::StatusCode::kNumericalFailure,
                   "injected serve.breaker.trip");
               return out;
             }
             auto factor =
                 opt::try_prefactor_box_qp(p_mat, config_.admm_rho);
             if (!factor.status.ok()) {
               out.status = factor.status;
               return out;
             }
             opt::AdmmOptions aopts;
             aopts.rho = config_.admm_rho;
             aopts.tolerance = config_.admm_tolerance;
             aopts.max_iterations = max_iterations;
             aopts.budget.deadline = deadline;
             aopts.budget.check_stride = 16;
             opt::AdmmResult r = opt::admm_box_qp(p_mat, factor.value, q, lo,
                                                  hi, aopts, warm);
             if (!r.status.usable()) {
               out.status = r.status;
               return out;
             }
             out.value.assignment = assignment;
             out.value.power.resize(n);
             for (std::size_t rb = 0; rb < n; ++rb)
               out.value.power[rb] = p0 + r.x[rb];
             rescale_to_budget(out.value.power, budget);
             out.value.iterations = r.iterations;
             out.value.warm_use = r.warm_use;
             out.status = r.status;
             return out;
           })
      .add_gated(
          "waterfill", robust::Soundness::kRelaxation,
          [&]() -> const char* {
            if (config_.breaker.enabled &&
                rtc.waterfill_breaker.blocked(tick))
              return "breaker open";
            return nullptr;
          },
          [&]() -> robust::Result<CellAllocation> {
             robust::Result<CellAllocation> out;
             if (faults::should_inject("serve.waterfill.outage", stamp)) {
               out.status = robust::make_status(
                   robust::StatusCode::kNumericalFailure,
                   "injected serve.waterfill.outage");
               return out;
             }
             out.value.assignment = assignment;
             out.value.power = qos::waterfill(gains, budget);
             return out;
           })
      .add("equal-power", robust::Soundness::kHeuristic,
           [&]() -> robust::Result<CellAllocation> {
             robust::Result<CellAllocation> out;
             out.value.assignment = assignment;
             out.value.power.assign(n, p0);
             return out;
           });

  robust::ChainOutcome<CellAllocation> outcome = chain.run(deadline);

  if (config_.breaker.enabled) {
    // Advance the breakers from what actually happened.  This runtime state
    // belongs to this cell's pool task alone, so no synchronization is
    // needed and the evolution is schedule-independent.
    const auto stage_failed = [&](const char* stage) {
      const std::string needle =
          std::string("step '") + stage + "' failed";
      for (const std::string& line : outcome.status.trail)
        if (line.find(needle) != std::string::npos) return true;
      return false;
    };
    const auto advance = [&](CircuitBreaker& breaker, const char* stage) {
      if (outcome.step == stage)
        breaker.record_success(config_.breaker, tick);
      else if (stage_failed(stage))
        breaker.record_failure(config_.breaker, tick);
      // Skipped (gated) stages record nothing: the open window just ages.
    };
    advance(rtc.admm_breaker, "admm");
    advance(rtc.waterfill_breaker, "waterfill");
  }
  if (outcome.status.code == robust::StatusCode::kFallbackExhausted) {
    // Deadline fired before any step could run: every cell still gets an
    // answer -- the zero-information equal split.
    alloc.assignment = assignment;
    alloc.power.assign(n, p0);
    alloc.step = "deadline-fill";
    alloc.status = outcome.status;
    alloc.status.note("deadline expired before any step; equal-power fill");
    obs::counter_add("rcr.serve.deadline_fills");
  } else {
    alloc = std::move(outcome.value);
    alloc.step = outcome.step;
    alloc.status = outcome.status;
  }
  if (config_.watchdog.enabled &&
      faults::should_inject("serve.solve.corrupt", stamp)) {
    // Poison the solve output so the watchdog has something real to catch.
    alloc.power[0] = std::numeric_limits<double>::quiet_NaN();
    alloc.status.note("injected serve.solve.corrupt");
  }
  alloc.sum_rate = sum_rate_of(gains, alloc.power);

  // Never cache a corrupted answer: a NaN anywhere in the power vector
  // surfaces as a NaN sum rate, and the watchdog (not the cache) owns it.
  if (config_.cache_enabled && std::isfinite(alloc.sum_rate))
    cache_.put(sig, stamp, alloc);
  return alloc;
}

CellAllocation AllocationService::serve_from_snapshot(
    const RraProblem& problem, std::size_t cell, std::uint64_t tick,
    AdmitDecision reason, bool injected) {
  const CellRuntime& rtc = runtime_[cell];
  const std::size_t n = problem.num_rbs();
  const double budget = problem.total_power;

  CellAllocation alloc;
  // A stale snapshot may predate a population change; only replay it when
  // its shape still matches the current problem.
  bool snapshot_ok =
      rtc.has_snapshot && rtc.snapshot_assignment.size() == n;
  if (snapshot_ok)
    for (std::size_t user : rtc.snapshot_assignment)
      if (user >= problem.num_users()) {
        snapshot_ok = false;
        break;
      }
  if (snapshot_ok) {
    alloc.assignment = rtc.snapshot_assignment;
    alloc.power = rtc.snapshot_power;
  } else {
    alloc.assignment = qos::best_gain_assignment(problem);
    alloc.power.assign(n, budget / static_cast<double>(n));
  }
  rescale_to_budget(alloc.power, budget);
  alloc.sum_rate =
      sum_rate_of(qos::assigned_gains(problem, alloc.assignment), alloc.power);

  const std::uint64_t age =
      tick >= rtc.last_fresh_tick ? tick - rtc.last_fresh_tick : 0;
  alloc.status.code = robust::StatusCode::kDegraded;
  switch (reason) {
    case AdmitDecision::kDefer:
      alloc.step = "snapshot";
      alloc.status.detail = "deferred by admission control";
      alloc.status.note("degraded:stale (age " + std::to_string(age) +
                        " ticks)");
      break;
    case AdmitDecision::kShed:
      alloc.step = "shed-fill";
      alloc.status.detail = "shed by admission control";
      alloc.status.note(injected
                            ? "degraded:shed (injected serve.admit.shed)"
                            : "degraded:shed (age " + std::to_string(age) +
                                  " ticks)");
      break;
    case AdmitDecision::kQuarantine:
      alloc.step = "quarantine";
      alloc.status.detail = "watchdog quarantine";
      alloc.status.note("degraded:quarantined (until tick " +
                        std::to_string(rtc.quarantine_until) + ")");
      break;
    case AdmitDecision::kAdmit:
      break;
  }
  return alloc;
}

AdmissionPlan AllocationService::build_plan(std::uint64_t tick,
                                            bool full_shed,
                                            BrownoutState state) const {
  const std::size_t cells = runtime_.size();
  std::vector<CellGate> gates(cells);
  const auto& slices = config_.admission.cell_slices;
  for (std::size_t c = 0; c < cells; ++c) {
    gates[c].rank =
        slices.empty() ? 1 : priority_rank(slices[c % slices.size()]);
    gates[c].staleness = tick >= runtime_[c].last_fresh_tick
                             ? tick - runtime_[c].last_fresh_tick
                             : 0;
    gates[c].quarantined =
        config_.watchdog.enabled && tick < runtime_[c].quarantine_until;
  }

  AdmissionInputs in;
  in.tick = tick;
  in.budget = config_.admission.max_solves_per_tick;
  if (config_.brownout.enabled && state == BrownoutState::kBrownout &&
      in.budget > 0)
    in.budget = std::max<std::size_t>(1, in.budget / 2);
  in.max_stale_ticks = config_.admission.max_stale_ticks;
  in.admission_enabled = config_.admission.enabled;
  in.shed_lowest = config_.brownout.enabled && state == BrownoutState::kShed;
  in.full_shed = full_shed;
  return plan_admission(gates, in);
}

TickReport AllocationService::tick(std::size_t tick_index,
                                   const ProblemFn& problem_of) {
  obs::Span span("serve.tick");
  const auto t_start = std::chrono::steady_clock::now();
  const std::size_t cells = warm_.size();
  const std::uint64_t tick = static_cast<std::uint64_t>(tick_index);
  const BrownoutState bstate = brownout_.state();

  double deadline_s = config_.tick_deadline_s;
  if (config_.brownout.enabled && bstate != BrownoutState::kNormal &&
      deadline_s > 0.0)
    deadline_s *= config_.brownout.brownout_deadline_factor;
  const robust::Deadline deadline =
      deadline_s > 0.0 ? robust::Deadline::after_seconds(deadline_s)
                       : robust::Deadline::unlimited();

  // A deadline that is already gone at the tick boundary means no solver
  // can possibly finish: shed the whole tick up front and serve every cell
  // from its snapshot instead of racing the clock cell by cell.
  const bool full_shed = !deadline.is_unlimited() && deadline.expired();
  AdmissionPlan plan = build_plan(tick, full_shed, bstate);

  // Two-phase cache protocol: the parallel fan-out reads the committed map
  // and buffers its stamp refreshes / inserts; the serial flush applies
  // them in stamp order.  Eviction victims and hit/miss outcomes are then
  // bit-identical for every RCR_THREADS setting even under eviction
  // pressure (in-place mutation would let a racing get's refresh land
  // before or after a racing put's eviction scan).
  if (config_.cache_enabled) cache_.begin_deferred();
  // Fan out only when the measured work pays for the dispatch; otherwise
  // the grain covers every cell and parallel_for runs the tick inline.
  rt::ThreadPool& pool = rt::global_pool();
  const std::size_t grain =
      rt::force_fan_out_active()
          ? 1
          : tick_grain(cells, cell_us_, pool.dispatch_us(), pool.size());
  const bool inline_tick = rt::detail::must_run_serial(cells, grain);
  const std::size_t chunks = inline_tick ? 1 : (cells + grain - 1) / grain;
  rt::parallel_for(
      0, cells, grain,
      [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) {
          const std::uint64_t stamp = tick * cells + c;
          if (plan.decisions[c] == AdmitDecision::kAdmit)
            current_[c] = solve_cell(problem_of(c), c, tick, stamp, deadline);
          else
            current_[c] = serve_from_snapshot(problem_of(c), c, tick,
                                              plan.decisions[c],
                                              plan.injected[c]);
        }
      });
  if (config_.cache_enabled) cache_.flush();

  TickReport report;
  report.tick = tick_index;
  report.cells = cells;
  report.brownout_state = static_cast<int>(bstate);
  report.solution_hash = 1469598103934665603ull;  // FNV offset basis
  // Serial pass in ascending cell order: the report (and in particular the
  // solution hash) is independent of which threads solved which cells.
  // All CellRuntime bookkeeping (watchdog quarantine, snapshots, freshness)
  // also lands here, in cell order, for the same reason.
  std::size_t chain_cells = 0;
  std::size_t chain_steps = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    if (config_.watchdog.enabled &&
        plan.decisions[c] == AdmitDecision::kAdmit) {
      bool finite = std::isfinite(current_[c].sum_rate);
      for (double p : current_[c].power)
        if (!std::isfinite(p)) finite = false;
      if (!finite) {
        // Unsound solve output: quarantine the cell and fall back to its
        // last-known-good snapshot right now.
        runtime_[c].quarantine_until =
            tick + 1 + config_.watchdog.quarantine_ticks;
        ++runtime_[c].watchdog_trips;
        obs::counter_add("rcr.watchdog.trips");
        plan.decisions[c] = AdmitDecision::kQuarantine;
        --plan.admitted;
        ++plan.quarantined;
        current_[c] = serve_from_snapshot(problem_of(c), c, tick,
                                          AdmitDecision::kQuarantine, false);
      }
    }
    const CellAllocation& a = current_[c];
    if (plan.decisions[c] == AdmitDecision::kAdmit) {
      if (a.cache_hit) {
        ++report.cache_hits;
      } else {
        ++report.solves;
        report.total_iterations += a.iterations;
        if (a.warm_use == opt::WarmUse::kAccepted) ++report.warm_accepted;
        if (a.step != "admm" && a.step != "cache") ++report.degraded;
        if (a.step == "deadline-fill") ++report.deadline_fills;
      }
      // Fallback-depth proxy for the brownout controller: one clean head
      // answer is depth 1, every failed or gated step adds one.  Only the
      // controller reads it, so the trail scan runs only when it is on.
      if (config_.brownout.enabled && !a.cache_hit) {
        ++chain_cells;
        std::size_t depth = 1;
        for (const std::string& line : a.status.trail)
          if (line.find("' failed") != std::string::npos ||
              line.find("' skipped") != std::string::npos)
            ++depth;
        chain_steps += depth;
      }
      // Freshness bookkeeping: any chain or cache answer refreshes the
      // staleness clock; only finite non-fill answers refresh the
      // last-known-good snapshot.
      runtime_[c].last_fresh_tick = tick;
      if (a.step != "deadline-fill") {
        runtime_[c].snapshot_assignment = a.assignment;
        runtime_[c].snapshot_power = a.power;
        runtime_[c].has_snapshot = true;
      }
    } else {
      ++report.degraded;
    }
    report.sum_rate += a.sum_rate;
    report.solution_hash = fnv1a_bytes(
        a.assignment.data(), a.assignment.size() * sizeof(std::size_t),
        report.solution_hash);
    report.solution_hash =
        fnv1a_bytes(a.power.data(), a.power.size() * sizeof(double),
                    report.solution_hash);
  }
  report.admitted = plan.admitted;
  report.deferred = plan.deferred;
  report.shed = plan.shed;
  report.quarantined = plan.quarantined;
  report.tick_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  // Running per-cell cost from the tick's own clock: a fanned-out tick
  // spread its work over min(chunks, threads) threads.  The first tick
  // solves every cell cold and says little about the ticks that follow, so
  // the estimate starts from the second.
  if (ticks_served_++ > 0) {
    const double threads_used = static_cast<double>(
        std::min<std::size_t>(chunks, pool.size() + 1));
    const double cell_sample = report.tick_seconds * 1e6 * threads_used /
                               static_cast<double>(cells);
    cell_us_ = cell_us_ > 0.0
                   ? cell_us_ + kCellCostWeight * (cell_sample - cell_us_)
                   : cell_sample;
  }

  obs::counter_add("rcr.serve.ticks");
  if (inline_tick) obs::counter_add("rcr.serve.inline_ticks");
  obs::gauge_set("rcr.serve.cell_us", cell_us_);
  obs::counter_add("rcr.serve.solves", report.solves);
  obs::counter_add("rcr.serve.iterations", report.total_iterations);
  if (report.admitted > 0)
    obs::counter_add("rcr.admit.admitted", report.admitted);
  if (report.deferred > 0)
    obs::counter_add("rcr.admit.deferred", report.deferred);
  if (report.shed > 0) obs::counter_add("rcr.admit.shed", report.shed);
  if (report.quarantined > 0)
    obs::counter_add("rcr.serve.quarantined", report.quarantined);
  obs::gauge_set("rcr.serve.fleet_cells", static_cast<double>(cells));
  obs::gauge_set("rcr.serve.last_sum_rate", report.sum_rate);
  obs::histogram_observe("rcr.serve.tick_us",
                         report.tick_seconds * 1e6);
  span.attr("cells", static_cast<double>(cells));
  span.attr("cache_hits", static_cast<double>(report.cache_hits));
  span.attr("iterations", static_cast<double>(report.total_iterations));
  span.attr("chunks", static_cast<double>(chunks));

  if (config_.brownout.enabled) {
    const double degraded_fraction =
        cells > 0 ? static_cast<double>(report.degraded) /
                        static_cast<double>(cells)
                  : 0.0;
    const double mean_depth =
        chain_cells > 0 ? static_cast<double>(chain_steps) /
                              static_cast<double>(chain_cells)
                        : 1.0;
    brownout_.observe(degraded_fraction, mean_depth,
                      report.tick_seconds * 1e6);
    obs::gauge_set("rcr.brownout.state",
                   static_cast<double>(static_cast<int>(brownout_.state())));
  }
  return report;
}

TickReport AllocationService::tick(std::size_t tick_index,
                                   const DiurnalWorkload& workload) {
  if (workload.num_cells() != num_cells())
    throw std::invalid_argument(
        "AllocationService::tick: workload fleet size mismatch");
  return tick(tick_index,
              [&workload](std::size_t c) -> const RraProblem& {
                return workload.cell(c);
              });
}

}  // namespace rcr::serve
