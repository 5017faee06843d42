#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "allocs.hpp"
#include "feasibility.hpp"
#include "rcr/learn/artifact.hpp"
#include "rcr/learn/predictor.hpp"
#include "rcr/learn/qp.hpp"
#include "rcr/obs/obs.hpp"
#include "rcr/opt/admm.hpp"
#include "rcr/opt/warm.hpp"
#include "rcr/qos/rra.hpp"
#include "rcr/rt/thread_pool.hpp"
#include "rcr/scn/dsl.hpp"
#include "rcr/scn/grader.hpp"
#include "rcr/serve/service.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using rcr::serve::AllocationService;
using rcr::serve::CellAllocation;
using rcr::serve::DiurnalWorkload;
using rcr::serve::ServiceConfig;
using rcr::serve::TickReport;
using rcr::serve::WorkloadConfig;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Timed repeats per untraced run, at least: medians need several.  Every
/// untraced run first makes one untimed warm-up repeat (lazy set-up, first
/// page touches, clock ramp), which also serves as the reference repeat for
/// the determinism and quality checks.
constexpr std::size_t kMinRepeats = 3;

WorkloadConfig serve_config(std::size_t cells, std::size_t coherence) {
  WorkloadConfig c;
  c.num_cells = cells;
  c.num_rbs = 12;
  c.min_users = 2;
  c.peak_users = 8;
  c.coherence_ticks = coherence;
  return c;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"serve-blockfade", Kind::kServe, 1, serve_config(16, 4), 2048, 2048},
      {"serve-fastfade-256", Kind::kServe, 1, serve_config(256, 1), 1024, 128},
      {"scn-fleet", Kind::kFleet, 2, WorkloadConfig{}, 0, 0},
  };
  return defs;
}

/// Latency percentiles taken per repeat and summarised as medians over
/// repeats, so one disturbed repeat cannot move the reported tail.
struct RepeatLatency {
  std::vector<double> p50;
  std::vector<double> tail;
  Percentile shape;  ///< Percentile rank and counts of one repeat's tail.

  void add(const std::vector<double>& latency_us) {
    p50.push_back(percentile(latency_us, 50.0).value);
    shape = tail_percentile(latency_us);
    tail.push_back(shape.value);
  }
  void report(RunResult& res, const char* op, const char* unit_name) const {
    const double repeats = static_cast<double>(p50.size());
    const double n = static_cast<double>(shape.n);
    res.add("latency_p50_us", median(p50), "us",
            fmt("median over %.0f repeats of the p50 of %.0f ", repeats, n) +
                op + " " + unit_name);
    res.add("latency_p99_us", median(tail), "us",
            fmt("median over %.0f repeats of the p%.0f of %.0f ", repeats,
                shape.p, n) +
                op + " " + unit_name +
                fmt(", %.0f beyond", static_cast<double>(shape.beyond)));
  }
};

/// The reference pool for the cross-pool determinism check: a 1-thread
/// pool against a multi-thread workload pool, two threads against a
/// 1-thread workload pool (so the check always compares two pool sizes
/// where the machine has them).
std::size_t reference_pool(std::size_t pool) {
  return pool > 1 ? 1 : pool_size(2);
}

std::vector<rcr::scn::ScenarioSpec> fleet_specs(std::uint64_t seed) {
  std::vector<rcr::scn::ScenarioSpec> specs =
      rcr::scn::conformance_fleet().honor_env(false).seed(seed).enumerate();
  std::vector<rcr::scn::ScenarioSpec> overload =
      rcr::scn::overload_fleet().honor_env(false).seed(seed).enumerate();
  specs.insert(specs.end(), overload.begin(), overload.end());
  return specs;
}

/// Peak resident set of this process image (VmHWM; unlike getrusage's
/// ru_maxrss it does not carry over the peak of the process that exec'd us).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
  return 0.0;
}

/// Check every cell of the tick just served.
void check_tick(const AllocationService& svc,
                       const DiurnalWorkload& gen, std::size_t tick,
                       RunResult& res) {
  for (std::size_t c = 0; c < svc.num_cells(); ++c) {
    const CellAllocation& a = svc.allocation(c);
    const CellCheck k = check_cell(gen.cell(c), a.assignment, a.power, a.step);
    ++res.attempted;
    if (!k.ok()) {
      res.fail(1, "tick " + std::to_string(tick) + " cell " +
                      std::to_string(c) + ": " + k.reason);
    }
  }
}

/// Replay `ticks` ticks of the workload on a `pool`-thread pool and
/// return every tick's solution hash.
std::vector<std::uint64_t> serve_hashes(const WorkloadConfig& cfg,
                                        std::size_t pool, std::size_t ticks) {
  rcr::rt::set_global_threads(pool);
  DiurnalWorkload gen(cfg);
  AllocationService svc(ServiceConfig{}, cfg.num_cells);
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < ticks; ++t) {
    gen.advance(t);
    out.push_back(svc.tick(t, gen).solution_hash);
  }
  return out;
}

// ---------------------------------------------------------------- serve e2e

/// Generator seed of repeat `r` of a run with seed `seed` (splitmix64).
/// Each repeat draws its own cells, so one run's median averages over many
/// channel geometries and the run-to-run spread across seeds stays small.
std::uint64_t repeat_seed(std::uint64_t seed, std::size_t r) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (r + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

RunResult serve_end_to_end(const WorkloadDef& w, std::uint64_t seed,
                           double seconds) {
  RunResult res;
  const std::size_t cells = w.serve.num_cells;
  const std::size_t ticks = w.seq_ticks;
  const std::size_t pool = pool_size(w.pool);

  std::vector<double> setup_s;
  std::vector<double> rates;
  RepeatLatency latency;
  std::vector<double> latency_us(ticks - 1);
  std::vector<std::uint64_t> hashes0;
  // Quality is taken over the repeats every run makes (warm-up + the
  // minimum timed ones), so it depends on the seed only, never on speed.
  double sum_rate = 0.0;
  std::size_t quality_cell_ticks = 0;
  std::size_t floors_met = 0;
  std::size_t users = 0;

  Clock::time_point start = Clock::now();
  for (std::size_t r = 0;; ++r) {
    WorkloadConfig cfg = w.serve;
    cfg.seed = repeat_seed(seed, r);
    // Set-up: pool creation, generator, service, and the first (cold) tick.
    const Clock::time_point s0 = Clock::now();
    rcr::rt::set_global_threads(pool);
    DiurnalWorkload gen(cfg);
    AllocationService svc(ServiceConfig{}, cells);
    gen.advance(0);
    const TickReport first = svc.tick(0, gen);
    if (r > 0) setup_s.push_back(seconds_since(s0));
    check_tick(svc, gen, 0, res);
    if (r == 0) hashes0.push_back(first.solution_hash);

    const bool quality = r <= kMinRepeats;
    double tick_s = 0.0;
    for (std::size_t t = 1; t < ticks; ++t) {
      gen.advance(t);
      const Clock::time_point a = Clock::now();
      const TickReport rep = svc.tick(t, gen);
      const double dt = seconds_since(a);
      tick_s += dt;
      latency_us[t - 1] = dt * 1e6;
      check_tick(svc, gen, t, res);
      if (r == 0) hashes0.push_back(rep.solution_hash);
      if (quality) {
        sum_rate += rep.sum_rate;
        quality_cell_ticks += cells;
        for (std::size_t c = 0; c < cells; ++c) {
          const CellAllocation& al = svc.allocation(c);
          users += gen.cell(c).num_users();
          if (check_cell(gen.cell(c), al.assignment, al.power, al.step).ok())
            floors_met +=
                users_at_rate_floor(gen.cell(c), al.assignment, al.power);
        }
      }
    }
    if (r == 0) {
      start = Clock::now();  // the warm-up repeat is not timed
      continue;
    }
    rates.push_back(static_cast<double>((ticks - 1) * cells) / tick_s);
    latency.add(latency_us);
    if (seconds_since(start) >= seconds && r >= kMinRepeats) break;
  }

  // Cross-pool determinism: the warm-up repeat's inputs on another pool
  // size must serve bit-identical answers (per-tick solution hashes).
  WorkloadConfig cfg0 = w.serve;
  cfg0.seed = repeat_seed(seed, 0);
  const std::size_t check_ticks =
      std::min(ticks, std::max<std::size_t>(1, 32768 / cells));
  const std::vector<std::uint64_t> ref =
      serve_hashes(cfg0, reference_pool(pool), check_ticks);
  res.attempted += check_ticks * cells;
  for (std::size_t t = 0; t < check_ticks; ++t)
    if (ref[t] != hashes0[t]) {
      res.fail(cells, "tick " + std::to_string(t) + ": solution_hash differs "
                      "between a " + std::to_string(pool) + "-thread and a " +
                      std::to_string(reference_pool(pool)) + "-thread pool");
    }

  const double qct = static_cast<double>(quality_cell_ticks);
  res.add("cell_ticks_per_s", median(rates), "1/s",
          fmt("median of %.0f repeats of %.0f timed cell-ticks",
              static_cast<double>(rates.size()),
              static_cast<double>((ticks - 1) * cells)));
  latency.report(res, "tick()", "ticks");
  res.add("sum_rate_per_cell_tick", sum_rate / qct, "bit/s/Hz",
          fmt("mean over %.0f cell-ticks of the first %.0f repeats", qct,
              static_cast<double>(kMinRepeats + 1)));
  res.add("qos_met_ratio",
          static_cast<double>(floors_met) / static_cast<double>(users),
          "ratio",
          fmt("%.0f of %.0f user rate floors met",
              static_cast<double>(floors_met), static_cast<double>(users)));
  res.add("setup_s", median(setup_s), "s",
          fmt("median of %.0f set-ups (pool, generator, service, cold tick)",
              static_cast<double>(setup_s.size())));
  res.add("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM");
  return res;
}

// ---------------------------------------------------------------- fleet e2e

struct FleetPass {
  double grade_s = 0.0;
  std::size_t cell_ticks = 0;
  std::vector<double> latency_us;
  std::vector<rcr::scn::ScenarioVerdict> verdicts;
  std::size_t allocs = 0;
};

bool verdict_failed(const rcr::scn::ScenarioVerdict& v) {
  return v.verdict == rcr::scn::Verdict::kFail ||
         v.verdict == rcr::scn::Verdict::kUnsound;
}

FleetPass grade_pass(const std::vector<rcr::scn::ScenarioSpec>& specs) {
  FleetPass pass;
  const rcr::scn::GraderOptions options;
  pass.latency_us.reserve(specs.size());
  pass.verdicts.reserve(specs.size());
  for (const rcr::scn::ScenarioSpec& spec : specs) {
    const std::uint64_t a0 = allocs_now();
    const Clock::time_point a = Clock::now();
    rcr::scn::ScenarioVerdict v = rcr::scn::grade_scenario(spec, options);
    const double dt = seconds_since(a);
    pass.allocs += allocs_now() - a0;
    pass.grade_s += dt;
    pass.latency_us.push_back(dt * 1e6);
    pass.cell_ticks += v.cell_ticks;
    pass.verdicts.push_back(std::move(v));
  }
  return pass;
}

/// Check a pass's verdicts: no fail/unsound verdict, and (against a
/// reference pass) identical verdicts and final-tick solution hashes.
void check_pass(const FleetPass& pass, const FleetPass* reference,
                const std::vector<rcr::scn::ScenarioSpec>& specs,
                std::uint64_t seed, const char* what, RunResult& res) {
  for (std::size_t i = 0; i < pass.verdicts.size(); ++i) {
    const rcr::scn::ScenarioVerdict& v = pass.verdicts[i];
    ++res.attempted;
    if (verdict_failed(v)) {
      res.fail(1, std::string(rcr::scn::to_string(v.verdict)) + ": " +
                      specs[i].replay_line(seed) + " -- " + v.detail);
    } else if (reference != nullptr &&
               (v.verdict != reference->verdicts[i].verdict ||
                v.solution_hash != reference->verdicts[i].solution_hash)) {
      res.fail(1, std::string(what) + ": " + specs[i].replay_line(seed));
    }
  }
}

RunResult fleet_end_to_end(const WorkloadDef& w, std::uint64_t seed,
                           double seconds) {
  RunResult res;
  const std::size_t pool = pool_size(w.pool);
  std::vector<double> setup_s;
  std::vector<double> rates;
  RepeatLatency latency;
  std::optional<FleetPass> first;
  std::vector<rcr::scn::ScenarioSpec> specs;

  Clock::time_point start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    // Set-up: pool creation and fleet enumeration.
    const Clock::time_point s0 = Clock::now();
    rcr::rt::set_global_threads(pool);
    specs = fleet_specs(seed);
    if (p > 0) setup_s.push_back(seconds_since(s0));

    FleetPass pass = grade_pass(specs);
    check_pass(pass, first ? &*first : nullptr, specs, seed,
               "pass differs from pass 0", res);
    if (p == 0) {
      first = std::move(pass);
      start = Clock::now();  // the warm-up pass is not timed
      continue;
    }
    rates.push_back(static_cast<double>(pass.cell_ticks) / pass.grade_s);
    latency.add(pass.latency_us);
    if (seconds_since(start) >= seconds && p >= kMinRepeats) break;
  }

  rcr::rt::set_global_threads(reference_pool(pool));
  const FleetPass ref = grade_pass(specs);
  check_pass(ref, &*first, specs, seed,
             "verdict or solution_hash differs across pool sizes", res);

  std::size_t passed = 0;
  double sla = 0.0;
  double sum_rate = 0.0;
  std::size_t cells = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const rcr::scn::ScenarioVerdict& v = first->verdicts[i];
    if (v.verdict == rcr::scn::Verdict::kPass) ++passed;
    sla += v.sla_satisfaction;
    sum_rate += v.fleet_sum_rate;
    cells += specs[i].cells;
  }
  const double n = static_cast<double>(specs.size());
  res.add("cell_ticks_per_s", median(rates), "1/s",
          fmt("graded cell-ticks over grade_scenario() time; median of %.0f "
              "passes of %.0f scenarios (%.0f scenarios/s)",
              static_cast<double>(rates.size()), n,
              median(rates) * n / static_cast<double>(first->cell_ticks)));
  latency.report(res, "grade_scenario()", "scenarios");
  res.add("sum_rate_per_cell_tick", sum_rate / static_cast<double>(cells),
          "bit/s/Hz",
          fmt("final-tick sum rate per cell over %.0f scenarios", n));
  res.add("qos_met_ratio", sla / n, "ratio",
          fmt("mean SLA satisfaction over %.0f scenarios; pass verdicts "
              "%.0f of %.0f",
              n, static_cast<double>(passed), n));
  res.add("setup_s", median(setup_s), "s",
          fmt("median of %.0f set-ups (pool, fleet enumeration)",
              static_cast<double>(setup_s.size())));
  res.add("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM");
  return res;
}


// ---------------------------------------------------------------- per layer
//
// Traced runs use four windows over the same seeded inputs:
//   W0  2-thread pool, untraced          -> tick/grade wall time, allocs
//   W1  2-thread pool, metrics armed     -> the program's counters
//   W2  1-thread pool, untraced          -> the same wall time serially
//   W3  1-thread pool, tracing armed     -> program spans + replay spans
// W3 runs serially so every child span nests on the calling thread and self
// time is plain subtraction; W2/W0 gives the fan-out speedup (on every
// workload, whatever its own pool) and W3/W2 the tracing overhead.

/// Pool of the fan-out windows W0/W1.
std::size_t fanout_pool() { return pool_size(2); }

namespace obs = rcr::obs;

/// Sum of counter `name` (optionally one label) in a metrics snapshot.
double counter(const std::vector<obs::MetricSample>& snap, const char* name,
               const char* label_value = nullptr) {
  double total = 0.0;
  for (const obs::MetricSample& m : snap)
    if (m.name == name &&
        (label_value == nullptr || m.label_value == label_value))
      total += m.value;
  return total;
}

/// Drain the trace buffers into spans and clear them.
std::vector<SpanRec> drain_trace() {
  if (obs::trace_dropped() != 0)
    throw std::runtime_error("trace ring buffer overflowed");
  std::vector<SpanRec> spans =
      build_spans(parse_trace_events(obs::trace_json()));
  obs::reset_trace();
  return spans;
}

/// Arms tracing for a scope; clears the buffers on both ends.
struct TraceWindow {
  TraceWindow() {
    obs::reset_trace();
    obs::set_trace_enabled(true);
  }
  ~TraceWindow() {
    obs::set_trace_enabled(false);
    obs::reset_trace();
  }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;
};

/// Arms the metrics registry for a scope, zeroed on entry.
struct MetricsWindow {
  MetricsWindow() {
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
  }
  ~MetricsWindow() { obs::set_metrics_enabled(false); }
  MetricsWindow(const MetricsWindow&) = delete;
  MetricsWindow& operator=(const MetricsWindow&) = delete;
};

/// Replay spans that stand for work an enclosing program operation does
/// outside any program span: on the serve workloads the parts of solve_cell
/// around the chain, on the fleet the service and workload set-up inside
/// grade_scenario().  They split that operation's otherwise unattributed
/// self time.
bool attributed_replay(const std::string& name) {
  return name == "bench.serve.signature" || name == "bench.serve.cache_get" ||
         name == "bench.qos.assign" || name == "bench.learn.qp_build" ||
         name == "bench.serve.cache_put" || name == "bench.serve.cache_flush" ||
         name == "bench.scn.service_setup" ||
         name == "bench.scn.workload_advance";
}

/// Index of the top-level span enclosing span `i`.
std::size_t top_ancestor(const std::vector<SpanRec>& spans, std::size_t i) {
  while (spans[i].parent >= 0) i = static_cast<std::size_t>(spans[i].parent);
  return i;
}

/// Spans of one analysed workload.  W3 runs twice over the same inputs: a
/// replay pass (the program untraced, the replay traced) and a program pass
/// (the program traced, no replay), so replay work never sits between two
/// traced operations and tracing measures only the program's own spans.
struct LayerTimes {
  std::map<std::string, SpanTotals> bench;  ///< Replay spans by name.
  std::vector<double> replay_us;  ///< Attributed replay time per operation.
  SpanTotals chain;        ///< fallback.run inside serve.tick.
  SpanTotals admm;         ///< admm.box_qp inside fallback.run.
  Attribution tick;        ///< serve.tick split.
  Attribution grade;       ///< bench.scn.grade split (fleet only).
  std::size_t ops = 0;     ///< Top-level operations folded this round.

  /// Start a round: a replay pass followed by a program pass over the same
  /// inputs (times accumulate across rounds).
  void begin_round() {
    replay_us.clear();
    ops = 0;
  }

  /// Replay pass: fold the spans replaying one operation (tick or scenario).
  void fold_replay(const std::vector<SpanRec>& spans) {
    double attributed = 0.0;
    for (const SpanRec& s : spans) {
      if (s.parent >= 0) continue;
      SpanTotals& t = bench[s.name];
      ++t.count;
      t.total_us += s.dur_us();
      t.self_us += s.self_us();
      if (attributed_replay(s.name)) attributed += s.dur_us();
    }
    replay_us.push_back(attributed);
  }

  /// Program pass: fold drained program spans.  Top-level operations
  /// (serve.tick or bench.scn.grade) are numbered in order and matched with
  /// the replay pass; the first `skip` operations (the cold tick) are left
  /// out.
  void fold_program(const std::vector<SpanRec>& spans, std::size_t skip) {
    std::map<std::size_t, std::size_t> op_of;  // top-level span -> op index
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent < 0 && (spans[i].name == "serve.tick" ||
                                  spans[i].name == "bench.scn.grade"))
        op_of[i] = ops++;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      const auto op_it = op_of.find(top_ancestor(spans, i));
      if (op_it == op_of.end() || op_it->second < skip) continue;
      const std::size_t op = op_it->second;
      const std::string parent =
          s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name : "";
      const double replay = op < replay_us.size() ? replay_us[op] : 0.0;
      if (s.name == "serve.tick") {
        tick.add(s.dur_us(), s.child_us, parent.empty() ? replay : 0.0);
      } else if (s.name == "bench.scn.grade") {
        grade.add(s.dur_us(), s.child_us, replay);
      } else if (s.name == "fallback.run" && parent == "serve.tick") {
        ++chain.count;
        chain.total_us += s.dur_us();
        chain.self_us += s.self_us();
      } else if (s.name == "admm.box_qp" && parent == "fallback.run") {
        ++admm.count;
        admm.total_us += s.dur_us();
        admm.self_us += s.self_us();
      }
    }
  }

  double mean(const char* name) const {
    const auto it = bench.find(name);
    return it == bench.end() ? 0.0 : it->second.mean_us();
  }
};

/// Drain when the buffers hold more than this many events: well inside the
/// default 16384-event ring, and at most every few ticks.
constexpr std::uint64_t kDrainEvents = 4096;

/// Mirror of the service's per-cell state, advanced by replaying each
/// served cell through the public functions solve_cell calls, in its order.
struct ServeReplay {
  explicit ServeReplay(const ServiceConfig& config, std::size_t cells,
                       const rcr::learn::WarmStartPredictor& head)
      : scfg(config),
        cache(config.cache_capacity, config.cache_shards),
        warm(cells),
        predictor(head) {}

  const ServiceConfig& scfg;
  rcr::serve::ShardedLruCache<CellAllocation> cache;
  std::vector<rcr::opt::AdmmWarmState> warm;
  const rcr::learn::WarmStartPredictor& predictor;

  std::size_t divergences = 0;  ///< Replay outcomes that differ from serving.
  std::size_t predicts = 0;
  std::size_t selected = 0;
  double iterations_saved = 0.0;

  void tick(const AllocationService& svc, const DiurnalWorkload& gen,
            std::uint64_t t) {
    namespace qos = rcr::qos;
    namespace opt = rcr::opt;
    namespace learn = rcr::learn;
    const std::size_t cells = svc.num_cells();
    cache.begin_deferred();
    for (std::size_t c = 0; c < cells; ++c) {
      const qos::RraProblem& pb = gen.cell(c);
      const CellAllocation& served = svc.allocation(c);
      const std::uint64_t stamp = t * cells + c;
      std::uint64_t sig = 0;
      {
        obs::Span s("bench.serve.signature");
        sig = rcr::serve::problem_signature(pb, scfg.signature);
      }
      CellAllocation hit_value;
      bool hit = false;
      {
        obs::Span s("bench.serve.cache_get");
        hit = cache.get(sig, stamp, hit_value);
      }
      if (hit != served.cache_hit) ++divergences;
      if (hit) continue;

      qos::Assignment assignment;
      rcr::Vec gains;
      {
        obs::Span s("bench.qos.assign");
        assignment = qos::best_gain_assignment(pb);
        gains = qos::assigned_gains(pb, assignment);
      }
      const std::size_t n = pb.num_rbs();
      const double budget = pb.total_power;
      const double p0 = budget / static_cast<double>(n);
      std::vector<double> curv(n), slope(n);
      double max_curv = 0.0;
      double lambda = 0.0;
      rcr::num::Matrix p_mat;
      rcr::Vec q, lo, hi;
      {
        obs::Span s("bench.learn.qp_build");
        max_curv = learn::power_qp_coeffs(gains.data(), n, p0, curv.data(),
                                          slope.data());
        lambda = scfg.budget_penalty * (max_curv > 0.0 ? max_curv : 1.0);
        p_mat = rcr::num::Matrix(n, n, 2.0 * lambda);
        q.assign(n, 0.0);
        lo.assign(n, -p0);
        hi.assign(n, budget - p0);
        for (std::size_t rb = 0; rb < n; ++rb) {
          p_mat(rb, rb) += curv[rb];
          q[rb] = slope[rb];
        }
      }

      // Learned head at library level: predict and select against the
      // carried state exactly as the armed service would (the shipped
      // configuration leaves the head off, so this work is not served).
      learn::PowerQp qp;
      qp.curv = curv.data();
      qp.slope = slope.data();
      qp.lo = lo.data();
      qp.hi = hi.data();
      qp.n = n;
      qp.lambda = lambda;
      qp.p0 = p0;
      qp.budget = budget;
      qp.max_curv = max_curv;
      std::vector<double> lz(n), lu(n), scratch(2 * n), zero(n, 0.0);
      bool select = false;
      {
        obs::Span s("bench.learn.predict");
        learn::predict_warm_start(qp, predictor, scfg.admm_rho, lz.data(),
                                  lu.data(), scratch.data());
        const double learned = learn::pg_residual(qp, lz.data());
        const double incumbent =
            opt::detail::warm_vec_ok(warm[c].z, n)
                ? learn::pg_residual(qp, warm[c].z.data())
                : learn::pg_residual(qp, zero.data());
        select = learned < rcr::serve::LearnedHeadConfig{}.select_margin *
                               incumbent;
      }
      ++predicts;
      if (select) ++selected;

      solve_like_chain_head(served, c, p_mat, q, lo, hi, lz, lu);

      {
        obs::Span s("bench.qos.waterfill");
        const rcr::Vec wf = qos::waterfill(gains, budget);
        if (wf.size() != n) ++divergences;
      }
      {
        obs::Span s("bench.serve.cache_put");
        cache.put(sig, stamp, served);
      }
    }
    obs::Span s("bench.serve.cache_flush");
    cache.flush();
  }

  /// Prefactor + ADMM from the carried state (mirrors the chain head), then
  /// ADMM from the learned start for the iterations-saved comparison.
  void solve_like_chain_head(const CellAllocation& served, std::size_t c,
                             const rcr::num::Matrix& p_mat, const rcr::Vec& q,
                             const rcr::Vec& lo, const rcr::Vec& hi,
                             const std::vector<double>& lz,
                             const std::vector<double>& lu) {
    namespace opt = rcr::opt;
    rcr::robust::Result<opt::BoxQpFactor> factor;
    {
      obs::Span s("bench.opt.prefactor");
      factor = opt::try_prefactor_box_qp(p_mat, scfg.admm_rho);
    }
    if (!factor.status.ok()) {
      if (served.step == "admm") ++divergences;
      return;
    }
    opt::AdmmOptions aopts;
    aopts.rho = scfg.admm_rho;
    aopts.tolerance = scfg.admm_tolerance;
    aopts.max_iterations = scfg.admm_max_iterations;
    aopts.budget.check_stride = 16;
    const opt::AdmmResult carried = opt::admm_box_qp(
        p_mat, factor.value, q, lo, hi, aopts, &warm[c]);
    if (served.step == "admm" && carried.iterations != served.iterations)
      ++divergences;
    opt::AdmmWarmState learned_start;
    learned_start.z = lz;
    learned_start.u = lu;
    const opt::AdmmResult learned = opt::admm_box_qp(
        p_mat, factor.value, q, lo, hi, aopts, &learned_start);
    iterations_saved += static_cast<double>(carried.iterations) -
                        static_cast<double>(learned.iterations);
  }
};

rcr::learn::WarmStartPredictor load_head() {
  rcr::robust::Result<rcr::learn::WarmStartPredictor> loaded =
      rcr::learn::load_predictor(PERFBENCH_LEARN_ARTIFACT);
  if (!loaded.status.ok())
    throw std::runtime_error("cannot load learned head " +
                             std::string(PERFBENCH_LEARN_ARTIFACT) + ": " +
                             loaded.status.to_string());
  return std::move(loaded.value);
}

/// Wall time of ticks 1..ticks-1 on a fresh service (tick 0 is the cold
/// set-up tick); also counts allocations inside tick() and checks answers.
struct ServeWindow {
  double tick_s = 0.0;
  std::uint64_t allocs = 0;
  std::size_t cell_ticks = 0;
  std::size_t degraded = 0;
  std::size_t ticks = 0;
};

/// With `layers` and tracing armed this is one of the two W3 passes: the
/// replay pass when `replay` is given, the program pass otherwise.
ServeWindow serve_window(const WorkloadConfig& cfg, std::size_t pool,
                         std::size_t ticks, RunResult& res,
                         ServeReplay* replay = nullptr,
                         LayerTimes* layers = nullptr) {
  rcr::rt::set_global_threads(pool);
  DiurnalWorkload gen(cfg);
  AllocationService svc(ServiceConfig{}, cfg.num_cells);
  ServeWindow w;
  for (std::size_t t = 0; t < ticks; ++t) {
    gen.advance(t);
    // The replay pass serves untraced and traces only the replay.
    if (replay != nullptr) obs::set_trace_enabled(false);
    const std::uint64_t a0 = allocs_now();
    const Clock::time_point a = Clock::now();
    const TickReport rep = svc.tick(t, gen);
    const double dt = seconds_since(a);
    const std::uint64_t da = allocs_now() - a0;
    check_tick(svc, gen, t, res);
    if (replay != nullptr) {
      obs::set_trace_enabled(true);
      replay->tick(svc, gen, t);
      layers->fold_replay(drain_trace());
    } else if (layers != nullptr &&
               (obs::trace_event_count() > kDrainEvents || t + 1 == ticks)) {
      layers->fold_program(drain_trace(), 1);  // skip the cold tick 0
    }
    ++w.ticks;
    w.degraded += rep.degraded;
    w.cell_ticks += cfg.num_cells;
    if (t == 0) continue;
    w.tick_s += dt;
    w.allocs += da;
  }
  return w;
}

RunResult serve_per_layer(const WorkloadDef& w, std::uint64_t seed,
                          double seconds) {
  RunResult res;
  WorkloadConfig cfg = w.serve;
  cfg.seed = repeat_seed(seed, 0);  // the untraced run's first inputs
  const std::size_t cells = cfg.num_cells;
  const std::size_t ticks = w.trace_ticks;
  const std::size_t pool = fanout_pool();
  const double timed_cell_ticks = static_cast<double>((ticks - 1) * cells);

  // W1: fan-out pool, program counters.  Also the warm-up.
  std::vector<obs::MetricSample> snap;
  ServeWindow counted;
  {
    MetricsWindow armed;
    counted = serve_window(cfg, pool, ticks, res);
    snap = obs::metrics_snapshot();
  }

  // Rounds of W0, W2 and the two W3 passes, so that every window samples
  // the same stretch of machine time; times are summed over rounds.
  const rcr::learn::WarmStartPredictor head = load_head();
  const ServiceConfig scfg;
  LayerTimes layers;
  std::vector<double> allocs_per;
  double w0_s = 0.0, w2_s = 0.0, traced_s = 0.0;
  std::size_t rounds = 0, divergences = 0, predicts_n = 0, selected = 0;
  double saved = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const ServeWindow sw = serve_window(cfg, pool, ticks, res);
    allocs_per.push_back(static_cast<double>(sw.allocs) / timed_cell_ticks);
    w0_s += sw.tick_s;
    w2_s += serve_window(cfg, 1, ticks, res).tick_s;
    layers.begin_round();
    {
      TraceWindow armed;
      ServeReplay replay(scfg, cells, head);
      serve_window(cfg, 1, ticks, res, &replay, &layers);
      divergences += replay.divergences;
      predicts_n += replay.predicts;
      selected += replay.selected;
      saved += replay.iterations_saved;
    }
    {
      TraceWindow armed;
      traced_s += serve_window(cfg, 1, ticks, res, nullptr, &layers).tick_s;
    }
    ++rounds;
  } while (seconds_since(start) < seconds || rounds < 2);
  if (divergences != 0)
    res.fail(divergences,
             "replay diverged from the served cache/ADMM outcomes");

  const double hits = counter(snap, "rcr.serve.cache.hits");
  const double misses = counter(snap, "rcr.serve.cache.misses");
  const double solves = counter(snap, "rcr.admm.solves");
  const double predicts = static_cast<double>(predicts_n);
  const double puts = static_cast<double>(
      layers.bench["bench.serve.cache_put"].count);
  const double put_us = layers.bench["bench.serve.cache_put"].total_us +
                        layers.bench["bench.serve.cache_flush"].total_us;
  const double t_ticks = static_cast<double>(counted.ticks);

  res.add("serve.tick_self_us", layers.tick.self_us_per_span(), "us",
          fmt("per traced tick, %.0f ticks", layers.tick.spans));
  res.add("serve.tick_coverage", layers.tick.coverage(), "ratio",
          fmt("of %.0f us traced serve.tick time (chain spans %.0f us + "
              "replay %.0f us)",
              layers.tick.span_us, layers.tick.child_us,
              layers.tick.replay_us));
  res.add("serve.signature_us", layers.mean("bench.serve.signature"), "us",
          fmt("per call, %.0f calls", static_cast<double>(
              layers.bench["bench.serve.signature"].count)));
  res.add("serve.cache_get_us", layers.mean("bench.serve.cache_get"), "us",
          fmt("per lookup, %.0f lookups", static_cast<double>(
              layers.bench["bench.serve.cache_get"].count)));
  res.add("serve.cache_put_us", ratio(put_us, puts), "us",
          fmt("per insert incl. its share of the serial flush, %.0f inserts",
              puts));
  res.add("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
          fmt("%.0f hits of %.0f lookups", hits, hits + misses));
  res.add("serve.cache_lookups", hits + misses, "count",
          fmt("over %.0f ticks", t_ticks));
  res.add("serve.cache_evictions_per_tick",
          counter(snap, "rcr.serve.cache.evictions") / t_ticks, "count",
          fmt("%.0f evictions over %.0f ticks",
              counter(snap, "rcr.serve.cache.evictions"), t_ticks));
  res.add("serve.allocs_per_cell_tick", median(allocs_per), "count",
          fmt("inside tick(), median of %.0f windows",
              static_cast<double>(allocs_per.size())));
  res.add("qos.assign_us", layers.mean("bench.qos.assign"), "us",
          "best_gain_assignment + assigned_gains per miss");
  res.add("qos.waterfill_us", layers.mean("bench.qos.waterfill"), "us",
          "per call on the replayed misses");
  res.add("learn.qp_build_us", layers.mean("bench.learn.qp_build"), "us",
          "power_qp_coeffs + P/q/box assembly per miss");
  res.add("learn.predict_us", layers.mean("bench.learn.predict"), "us",
          "predict_warm_start + residual selection per call");
  res.add("learn.select_ratio", ratio(static_cast<double>(selected), predicts),
          "ratio", fmt("%.0f selected of %.0f predicts",
                       static_cast<double>(selected), predicts));
  res.add("learn.predicts", predicts, "count", "replayed cache misses");
  res.add("learn.iterations_saved_per_predict",
          ratio(saved, predicts), "count",
          "ADMM iterations from carried state minus from learned start");
  res.add("opt.prefactor_us", layers.mean("bench.opt.prefactor"), "us",
          "try_prefactor_box_qp per miss");
  res.add("opt.admm_us", layers.admm.mean_us(), "us",
          fmt("admm.box_qp span inside the chain, %.0f solves",
              static_cast<double>(layers.admm.count)));
  res.add("opt.admm_iterations_per_solve",
          ratio(counter(snap, "rcr.admm.iterations"), solves), "count",
          fmt("%.0f iterations over %.0f solves",
              counter(snap, "rcr.admm.iterations"), solves));
  res.add("opt.warm_accept_ratio",
          ratio(counter(snap, "rcr.warm.accepted", "admm"), solves), "ratio",
          fmt("%.0f warm starts accepted of %.0f solves",
              counter(snap, "rcr.warm.accepted", "admm"), solves));
  res.add("opt.admm_solves", solves, "count", fmt("over %.0f ticks", t_ticks));
  res.add("robust.chain_overhead_us",
          ratio(layers.chain.self_us, static_cast<double>(layers.chain.count)),
          "us",
          fmt("fallback.run minus admm.box_qp per chain run, %.0f runs",
              static_cast<double>(layers.chain.count)));
  res.add("robust.degraded_ratio",
          ratio(static_cast<double>(counted.degraded),
                static_cast<double>(counted.cell_ticks)),
          "ratio", fmt("%.0f degraded of %.0f cell-ticks",
                       static_cast<double>(counted.degraded),
                       static_cast<double>(counted.cell_ticks)));
  res.add("robust.degraded_attempts", static_cast<double>(counted.cell_ticks),
          "count", "cell-ticks");
  res.add("runtime.parallel_speedup", ratio(w2_s, w0_s), "ratio",
          fmt("1-thread over %.0f-thread tick time, summed over %.0f rounds",
              static_cast<double>(pool), static_cast<double>(rounds)));
  res.add("runtime.tasks_per_tick",
          counter(snap, "rcr.runtime.tasks") / t_ticks, "count",
          fmt("rcr.runtime.tasks over %.0f ticks at %.0f threads", t_ticks,
              static_cast<double>(pool)));
  res.not_applicable("scn.grade_self_us", "us");
  res.not_applicable("scn.grade_coverage", "ratio");
  res.not_applicable("scn.service_setup_us", "us");
  res.not_applicable("scn.workload_advance_us", "us");
  res.add("obs.trace_overhead_ratio", ratio(traced_s, w2_s), "ratio",
          fmt("traced over untraced tick time, 1-thread pool, %.0f rounds",
              static_cast<double>(rounds)));
  return res;
}

/// Fleet counterpart of serve_window: one grading pass.
FleetPass fleet_window(const std::vector<rcr::scn::ScenarioSpec>& specs,
                       std::size_t pool, std::uint64_t seed, RunResult& res,
                       LayerTimes* layers = nullptr) {
  rcr::rt::set_global_threads(pool);
  if (layers == nullptr) {
    FleetPass pass = grade_pass(specs);
    check_pass(pass, nullptr, specs, seed, "", res);
    return pass;
  }
  // W3 program pass: each scenario inside a benchmark span, so its serve.tick
  // spans nest under it.
  FleetPass pass;
  const rcr::scn::GraderOptions options;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Clock::time_point a = Clock::now();
    {
      obs::Span g("bench.scn.grade");
      pass.verdicts.push_back(rcr::scn::grade_scenario(specs[i], options));
    }
    pass.grade_s += seconds_since(a);
    pass.cell_ticks += pass.verdicts.back().cell_ticks;
    if (obs::trace_event_count() > kDrainEvents || i + 1 == specs.size())
      layers->fold_program(drain_trace(), 0);
  }
  check_pass(pass, nullptr, specs, seed, "", res);
  return pass;
}

/// W3 replay pass on the fleet: per scenario, the service construction and
/// workload generation grade_scenario() does, plus assignment and
/// waterfill on every generated cell-tick, each inside a benchmark span.
void fleet_replay(const std::vector<rcr::scn::ScenarioSpec>& specs,
                  LayerTimes& layers, RunResult& res) {
  rcr::rt::set_global_threads(1);
  const rcr::scn::GraderOptions options;
  for (const rcr::scn::ScenarioSpec& spec : specs) {
    {
      obs::Span s("bench.scn.service_setup");
      AllocationService svc(options.service, spec.cells);
    }
    std::optional<rcr::scn::ScenarioWorkload> wl;
    {
      obs::Span s("bench.scn.workload_advance");
      wl.emplace(spec);
    }
    for (std::size_t t = 0; t < spec.ticks; ++t) {
      {
        obs::Span s("bench.scn.workload_advance");
        wl->advance(t);
      }
      for (std::size_t c = 0; c < spec.cells; ++c) {
        rcr::qos::Assignment assignment;
        rcr::Vec gains;
        {
          obs::Span s("bench.qos.assign");
          assignment = rcr::qos::best_gain_assignment(wl->cell(c));
          gains = rcr::qos::assigned_gains(wl->cell(c), assignment);
        }
        obs::Span s("bench.qos.waterfill");
        const rcr::Vec wf =
            rcr::qos::waterfill(gains, wl->cell(c).total_power);
        if (wf.size() != gains.size())
          res.fail(1, "waterfill returned the wrong length");
      }
    }
    layers.fold_replay(drain_trace());
  }
}

RunResult fleet_per_layer(const WorkloadDef& /*w*/, std::uint64_t seed,
                          double seconds) {
  RunResult res;
  const std::size_t pool = fanout_pool();
  const std::vector<rcr::scn::ScenarioSpec> specs = fleet_specs(seed);
  // W1: fan-out pool, program counters.  Also the warm-up.
  std::vector<obs::MetricSample> snap;
  FleetPass counted;
  {
    MetricsWindow armed;
    counted = fleet_window(specs, pool, seed, res);
    snap = obs::metrics_snapshot();
  }

  // Rounds of W0, W2 and the two W3 passes (see serve_per_layer).
  LayerTimes layers;
  std::vector<double> allocs_per;
  double w0_s = 0.0, w2_s = 0.0, traced_s = 0.0;
  std::size_t rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    const FleetPass p = fleet_window(specs, pool, seed, res);
    allocs_per.push_back(static_cast<double>(p.allocs) /
                         static_cast<double>(p.cell_ticks));
    w0_s += p.grade_s;
    w2_s += fleet_window(specs, 1, seed, res).grade_s;
    layers.begin_round();
    {
      TraceWindow armed;
      fleet_replay(specs, layers, res);
    }
    {
      TraceWindow armed;
      traced_s += fleet_window(specs, 1, seed, res, &layers).grade_s;
    }
    ++rounds;
  } while (seconds_since(start) < seconds || rounds < 2);

  std::size_t degraded = 0;
  for (const rcr::scn::ScenarioVerdict& v : counted.verdicts)
    degraded += v.degraded;
  const double n = static_cast<double>(specs.size());
  const double ticks = counter(snap, "rcr.serve.ticks");
  const double hits = counter(snap, "rcr.serve.cache.hits");
  const double misses = counter(snap, "rcr.serve.cache.misses");
  const double solves = counter(snap, "rcr.admm.solves");
  const double cell_ticks = static_cast<double>(counted.cell_ticks);

  res.add("serve.tick_self_us", layers.tick.self_us_per_span(), "us",
          fmt("per traced tick minus its chain spans (no replay split), "
              "%.0f ticks",
              layers.tick.spans));
  res.add("serve.tick_coverage", layers.tick.coverage(), "ratio",
          fmt("chain spans over %.0f us traced serve.tick time",
              layers.tick.span_us));
  res.not_applicable("serve.signature_us", "us");
  res.not_applicable("serve.cache_get_us", "us");
  res.not_applicable("serve.cache_put_us", "us");
  res.add("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
          fmt("%.0f hits of %.0f lookups", hits, hits + misses));
  res.add("serve.cache_lookups", hits + misses, "count",
          fmt("over %.0f ticks", ticks));
  res.add("serve.cache_evictions_per_tick",
          ratio(counter(snap, "rcr.serve.cache.evictions"), ticks), "count",
          fmt("over %.0f ticks", ticks));
  res.add("serve.allocs_per_cell_tick", median(allocs_per), "count",
          "inside grade_scenario() per graded cell-tick");
  res.add("qos.assign_us", layers.mean("bench.qos.assign"), "us",
          "per replayed cell-tick");
  res.add("qos.waterfill_us", layers.mean("bench.qos.waterfill"), "us",
          "per replayed cell-tick (the outage legs' fallback step)");
  res.not_applicable("learn.qp_build_us", "us");
  res.not_applicable("learn.predict_us", "us");
  res.not_applicable("learn.select_ratio", "ratio");
  res.not_applicable("learn.predicts", "count");
  res.not_applicable("learn.iterations_saved_per_predict", "count");
  res.not_applicable("opt.prefactor_us", "us");
  res.add("opt.admm_us", layers.admm.mean_us(), "us",
          fmt("admm.box_qp span inside the chain, %.0f solves",
              static_cast<double>(layers.admm.count)));
  res.add("opt.admm_iterations_per_solve",
          ratio(counter(snap, "rcr.admm.iterations"), solves), "count",
          fmt("%.0f iterations over %.0f solves",
              counter(snap, "rcr.admm.iterations"), solves));
  res.add("opt.warm_accept_ratio",
          ratio(counter(snap, "rcr.warm.accepted", "admm"), solves), "ratio",
          fmt("%.0f accepted of %.0f solves",
              counter(snap, "rcr.warm.accepted", "admm"), solves));
  res.add("opt.admm_solves", solves, "count", fmt("over %.0f ticks", ticks));
  res.add("robust.chain_overhead_us",
          ratio(layers.chain.self_us, static_cast<double>(layers.chain.count)),
          "us",
          fmt("fallback.run minus admm.box_qp per chain run, %.0f runs",
              static_cast<double>(layers.chain.count)));
  res.add("robust.degraded_ratio",
          ratio(static_cast<double>(degraded), cell_ticks), "ratio",
          fmt("%.0f degraded of %.0f cell-ticks",
              static_cast<double>(degraded), cell_ticks));
  res.add("robust.degraded_attempts", cell_ticks, "count", "cell-ticks");
  res.add("runtime.parallel_speedup", ratio(w2_s, w0_s), "ratio",
          fmt("1-thread over %.0f-thread grade time, summed over %.0f rounds",
              static_cast<double>(pool), static_cast<double>(rounds)));
  res.add("runtime.tasks_per_tick",
          ratio(counter(snap, "rcr.runtime.tasks"), ticks), "count",
          fmt("rcr.runtime.tasks over %.0f ticks at %.0f threads", ticks,
              static_cast<double>(pool)));
  res.add("scn.grade_self_us", layers.grade.self_us_per_span(), "us",
          fmt("grade_scenario() minus serve.tick spans and replayed set-up, "
              "per scenario (%.0f)",
              layers.grade.spans));
  res.add("scn.grade_coverage", layers.grade.coverage(), "ratio",
          fmt("of %.0f us traced grade time (ticks %.0f us + replay %.0f us)",
              layers.grade.span_us, layers.grade.child_us,
              layers.grade.replay_us));
  res.add("scn.service_setup_us", layers.mean("bench.scn.service_setup"), "us",
          "AllocationService construction per scenario");
  res.add("scn.workload_advance_us",
          layers.bench["bench.scn.workload_advance"].total_us /
              (n * static_cast<double>(rounds)),
          "us",
          "ScenarioWorkload construction + every advance() per scenario");
  res.add("obs.trace_overhead_ratio", ratio(traced_s, w2_s), "ratio",
          fmt("traced over untraced grade time, 1-thread pool, %.0f rounds",
              static_cast<double>(rounds)));
  return res;
}

}  // namespace

void RunResult::add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics.push_back(Metric{name, value, unit, note, true});
}

void RunResult::not_applicable(const std::string& name,
                               const std::string& unit) {
  metrics.push_back(Metric{name, 0.0, unit, "n/a on this workload", false});
}

void RunResult::fail(std::uint64_t count, const std::string& message) {
  failed += count;
  if (failures.size() < 8) failures.push_back(message);
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& w : workloads()) out.push_back(w.name);
  return out;
}

std::size_t pool_size(std::size_t requested) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(requested, hw));
}

RunResult run_end_to_end(const WorkloadDef& w, std::uint64_t seed,
                         double seconds) {
  return w.kind == Kind::kServe ? serve_end_to_end(w, seed, seconds)
                                : fleet_end_to_end(w, seed, seconds);
}

RunResult run_per_layer(const WorkloadDef& w, std::uint64_t seed,
                        double seconds) {
  return w.kind == Kind::kServe ? serve_per_layer(w, seed, seconds)
                                : fleet_per_layer(w, seed, seconds);
}

}  // namespace perfbench
