// Tick-driven QoS allocation service over rcr::qos (DESIGN.md §13).
//
// Every tick the service re-solves radio resource allocation for a fleet of
// cells under a per-tick deadline.  Three mechanisms keep the tick cheap:
//
//  1. Warm starting -- each cell carries the ADMM splitting state of its
//     previous solve; on a slowly-drifting channel the warm solve converges
//     in a fraction of the cold iteration count.  The carried state is the
//     only warm start; rcr::learn is offline-only (DESIGN.md §16 says why).
//  2. Solution caching -- a sharded LRU keyed by quantized problem
//     signature returns the previous allocation outright when the problem
//     did not change materially (block-fading coherence intervals).
//  3. Batched parallel solves -- a tick fans its cells out across the
//     global ThreadPool via rt::parallel_for only when its measured work
//     pays for the dispatch (tick_grain: the service's running per-cell
//     cost against the pool's measured round trip); smaller ticks run
//     inline.  Per-cell scratch arenas and per-cell state make results
//     bit-exact for every grain and every RCR_THREADS setting.
//
// Degradation: each cell solves through a FallbackChain "serve.cell"
// (warm-started ADMM power QP -> water-filling -> equal power); when the
// tick deadline expires before a cell's chain starts, the cell is filled
// with the equal-power allocation inline so every cell always has an
// answer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rcr/opt/admm.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/robust/status.hpp"
#include "rcr/serve/cache.hpp"
#include "rcr/serve/overload.hpp"
#include "rcr/serve/signature.hpp"
#include "rcr/serve/workload.hpp"

namespace rcr::serve {

/// The selection margin the learned warm-start head used when it ran inside
/// the service (DESIGN.md §16): a prediction was taken when its
/// projected-gradient residual fell below `select_margin` times the carried
/// state's.  The head is no longer part of the service; this struct stays
/// only because the repository benchmark's offline head replay reads the
/// margin from here.
struct LearnedHeadConfig {
  double select_margin = 0.9;
};

/// Service knobs.
struct ServiceConfig {
  bool warm_start = true;     ///< Reuse each cell's previous ADMM state.
  bool cache_enabled = true;  ///< Consult the solution cache before solving.
  std::size_t cache_capacity = 4096;
  std::size_t cache_shards = 16;
  SignatureConfig signature;
  /// Per-tick wall-clock deadline in seconds; <= 0 runs unlimited (the
  /// deterministic default -- an armed deadline makes degradation
  /// timing-dependent by design).
  double tick_deadline_s = 0.0;
  /// ADMM knobs for the per-cell power QP.
  double admm_rho = 1.0;
  double admm_tolerance = 1e-8;
  std::size_t admm_max_iterations = 4000;
  /// Scale of the soft power-budget penalty added to the QP Hessian
  /// (multiplied by the largest curvature entry).
  double budget_penalty = 1.0;
  /// Overload-control layer (DESIGN.md §15); every piece defaults off, so a
  /// default-configured service behaves exactly as before this layer existed.
  AdmissionConfig admission;
  BrownoutConfig brownout;
  BreakerConfig breaker;
  WatchdogConfig watchdog;
};

/// One cell's allocation for the current tick.
struct CellAllocation {
  qos::Assignment assignment;  ///< RB -> user.
  Vec power;                   ///< Per-RB transmit power (sums to budget).
  double sum_rate = 0.0;       ///< Achieved sum spectral efficiency.
  std::size_t iterations = 0;  ///< ADMM iterations spent (0 on hit/fallback).
  opt::WarmUse warm_use = opt::WarmUse::kCold;
  bool cache_hit = false;
  std::string step;            ///< Producing step: "cache", "admm",
                               ///< "waterfill", "equal-power",
                               ///< "deadline-fill", or one of the
                               ///< snapshot-served overload steps
                               ///< "snapshot", "shed-fill", "quarantine".
  robust::Status status;
};

/// Per-tick accounting.
struct TickReport {
  std::size_t tick = 0;
  std::size_t cells = 0;
  std::size_t cache_hits = 0;
  std::size_t solves = 0;           ///< Cells that ran the fallback chain.
  std::size_t warm_accepted = 0;    ///< Solves that reused warm state.
  std::size_t degraded = 0;         ///< Cells answered below the ADMM head.
  std::size_t deadline_fills = 0;   ///< Cells filled after deadline expiry.
  std::size_t total_iterations = 0; ///< ADMM iterations across solves.
  double sum_rate = 0.0;            ///< Fleet sum rate this tick.
  double tick_seconds = 0.0;
  // Overload-control accounting (all zero when the layer is off).
  std::size_t admitted = 0;     ///< Cells admitted to the solve chain.
  std::size_t deferred = 0;     ///< Cells served stale from snapshot.
  std::size_t shed = 0;         ///< Cells shed (budget/staleness/injection).
  std::size_t quarantined = 0;  ///< Cells in a watchdog quarantine window.
  int brownout_state = 0;       ///< BrownoutState at the start of the tick.
  /// FNV-1a over every cell's (assignment, power) in ascending cell order:
  /// the cross-thread determinism witness.
  std::uint64_t solution_hash = 0;
};

/// Cells per parallel_for chunk for a tick of `cells` cells (DESIGN.md §13
/// "Tick grain"): the number of cells whose measured cost, `cell_us` each,
/// covers a fixed multiple of one dispatch round trip (`dispatch_us`, see
/// rt::ThreadPool::dispatch_us).  Returns at least `cells` -- one chunk, so
/// the tick runs inline -- when there is no per-cell estimate yet
/// (`cell_us` <= 0: a service's first two ticks) or the pool has no
/// workers.  Always >= 1;
/// non-increasing in `cell_us` and non-decreasing in `dispatch_us`.
std::size_t tick_grain(std::size_t cells, double cell_us, double dispatch_us,
                       std::size_t workers);

/// The tick loop.  Construct once per fleet; call tick() with consecutive
/// tick indices.  Not itself thread-safe (one driver thread); the internal
/// per-cell solves fan out across the pool.
class AllocationService {
 public:
  /// Reads cell c's current problem; must be valid for the tick() call.
  using ProblemFn = std::function<const RraProblem&(std::size_t)>;

  AllocationService(const ServiceConfig& config, std::size_t num_cells);

  /// Solve every cell for `tick_index`.  `problem_of` is called once per
  /// cell (from pool threads; it must be safe to call concurrently for
  /// distinct cells -- a const workload qualifies).
  TickReport tick(std::size_t tick_index, const ProblemFn& problem_of);

  /// Convenience: tick against a DiurnalWorkload (advance() it first).
  TickReport tick(std::size_t tick_index, const DiurnalWorkload& workload);

  std::size_t num_cells() const { return warm_.size(); }

  /// Cell c's allocation from the most recent tick().
  const CellAllocation& allocation(std::size_t c) const { return current_[c]; }

  CacheStats cache_stats() const { return cache_.stats(); }

  /// Drop all warm states (every next solve runs cold).
  void reset_warm_states();

  /// Drop all cached solutions (statistics retained).
  void clear_cache() { cache_.clear(); }

  /// The brownout state machine (advances once per tick when enabled).
  const BrownoutController& brownout() const { return brownout_; }

 private:
  /// Per-cell overload state: the last-known-good snapshot the cell serves
  /// from while deferred/shed/quarantined, plus its breakers.  Mutated only
  /// by the cell's own pool task or the serial tick boundary.
  struct CellRuntime {
    qos::Assignment snapshot_assignment;
    Vec snapshot_power;
    bool has_snapshot = false;
    std::uint64_t last_fresh_tick = 0;  ///< Tick of the last fresh answer.
    std::uint64_t quarantine_until = 0;
    CircuitBreaker admm_breaker;
    CircuitBreaker waterfill_breaker;
    std::uint64_t watchdog_trips = 0;
  };

  CellAllocation solve_cell(const RraProblem& problem, std::size_t cell,
                            std::uint64_t tick, std::uint64_t stamp,
                            const robust::Deadline& deadline);
  /// Serve a non-admitted cell from its snapshot (or an equal-power
  /// rebuild when the snapshot no longer matches the problem shape).
  CellAllocation serve_from_snapshot(const RraProblem& problem,
                                     std::size_t cell, std::uint64_t tick,
                                     AdmitDecision reason, bool injected);
  AdmissionPlan build_plan(std::uint64_t tick, bool full_shed,
                           BrownoutState state) const;

  ServiceConfig config_;
  ShardedLruCache<CellAllocation> cache_;
  std::vector<opt::AdmmWarmState> warm_;
  std::vector<CellAllocation> current_;
  std::vector<CellRuntime> runtime_;
  BrownoutController brownout_;
  /// Running per-cell cost in microseconds (0 until the second tick).
  double cell_us_ = 0.0;
  std::size_t ticks_served_ = 0;
};

}  // namespace rcr::serve
