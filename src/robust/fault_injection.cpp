#include "rcr/robust/fault_injection.hpp"

#include "rcr/obs/obs.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

namespace rcr::robust::faults {

namespace {

// The site registry.  Every injection point in the codebase names one of
// these; should_inject refuses unknown names so the registry, the DESIGN.md
// table, and the chaos suite cannot drift apart.
const std::vector<std::string>& site_registry() {
  static const std::vector<std::string> kSites = {
      "numerics.lu.singular",   // lu_decompose_into reports a vanished pivot
      "admm.factor.singular",   // P + rho I factorization fails
      "admm.iterate.nan",       // ADMM x-iterate picks up a NaN
      "admm.deadline",          // forced deadline expiry in the ADMM loop
      "sdp.kkt.singular",       // SDP KKT system degenerate
      "sdp.iterate.nan",        // SDP splitting iterate picks up a NaN
      "sdp.deadline",           // forced deadline expiry in the SDP loop
      "qcqp.newton.nan",        // barrier Newton step non-finite
      "qcqp.deadline",          // forced deadline expiry in the barrier loop
      "lbfgs.gradient.nan",     // L-BFGS/BFGS/GD gradient non-finite
      "lbfgs.deadline",         // forced deadline expiry in smooth minimizers
      "tr.step.nan",            // trust-region step non-finite
      "tr.deadline",            // forced deadline expiry in the TR driver
      "pso.objective.nan",      // particle objective evaluates to NaN
      "pso.deadline",           // forced deadline expiry between iterations
      "verify.crown.nan",       // CROWN bound comes back non-finite
      "qos.exact.stall",        // slow path in the exact RRA/multi-RAT search
      "rrm.deadline",           // forced deadline expiry between RRM slots
      "stack.deadline",         // forced deadline expiry between stack phases
      // serve.* sites model per-cell RAT outages in the allocation service.
      // All three are *keyed* by the deterministic cell stamp (tick * cells
      // + cell) so injection is independent of the pool thread schedule.
      "serve.admm.outage",      // fail the serve.cell chain's ADMM head
      "serve.waterfill.outage", // fail the water-filling fallback step
      "serve.cache.drop",       // force a solution-cache miss for the cell
      // Overload-control sites (also stamp-keyed).  They only have an
      // effect when the owning feature (admission / breakers / watchdog)
      // is enabled in the ServiceConfig.
      "serve.admit.shed",       // shed an admitted cell in the tick plan
      "serve.breaker.trip",     // fail the ADMM step to exercise breakers
      "serve.solve.corrupt",    // poison solve output to trip the watchdog
  };
  return kSites;
}

struct State {
  std::mutex mu;
  FaultConfig config;
  std::map<std::string, std::uint64_t> hits;        // counter-keyed streams
  std::map<std::string, std::uint64_t> injections;  // fired per site
  std::atomic<std::uint64_t> total{0};
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ull;
  }
  return h;
}

bool site_registered(const char* site) {
  for (const std::string& s : site_registry())
    if (s == site) return true;
  return false;
}

// "a.b.c" matches pattern "a.b.c" exactly or "a.*" / "*" as a prefix glob.
bool pattern_matches(const std::string& pattern, const char* site) {
  if (pattern == "*") return true;
  if (!pattern.empty() && pattern.back() == '*')
    return std::string(site).rfind(pattern.substr(0, pattern.size() - 1), 0) ==
           0;
  return pattern == site;
}

bool site_selected(const FaultConfig& config, const char* site) {
  std::size_t start = 0;
  const std::string& sites = config.sites;
  while (start <= sites.size()) {
    const std::size_t comma = sites.find(',', start);
    const std::size_t end = comma == std::string::npos ? sites.size() : comma;
    if (pattern_matches(sites.substr(start, end - start), site)) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

// Pure decision: (seed, site, key) -> [0, 1) draw compared against rate.
bool decide(const FaultConfig& config, const char* site, std::uint64_t key) {
  const std::uint64_t z = splitmix64(config.seed ^ fnv1a(site) ^
                                     splitmix64(key + 0x5851f42d4c957f2dull));
  const double draw =
      static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return draw < config.rate;
}

bool should_inject_keyed(const char* site, std::uint64_t key) {
  if (!g_enabled.load(std::memory_order_relaxed)) return false;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.config.enabled || !site_selected(s.config, site)) return false;
  if (!site_registered(site)) return false;
  auto& fired = s.injections[site];
  if (fired >= s.config.max_per_site) return false;
  if (!decide(s.config, site, key)) return false;
  ++fired;
  s.total.fetch_add(1, std::memory_order_relaxed);
  // Every injection that actually fires is observable: exactly one labelled
  // counter increment plus one annotated trace event (chaos suite contract).
  obs::counter_add("rcr.faults.injected", "site", site);
  obs::instant("fault.injected", "site", site);
  return true;
}

}  // namespace

void configure(const FaultConfig& config) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.config = config;
  s.hits.clear();
  s.injections.clear();
  s.total.store(0, std::memory_order_relaxed);
  g_enabled.store(config.enabled, std::memory_order_relaxed);
}

bool configure_spec(const std::string& spec) {
  FaultConfig config;
  config.enabled = true;
  bool have_seed = false;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string field = spec.substr(start, end - start);
    const std::size_t eq = field.find('=');
    if (!field.empty()) {
      if (eq == std::string::npos) {
        // Bare value: treat as the seed ("RCR_FAULTS=42").
        char* endp = nullptr;
        config.seed = std::strtoull(field.c_str(), &endp, 0);
        if (endp == field.c_str() || *endp != '\0') return false;
        have_seed = true;
      } else {
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        char* endp = nullptr;
        if (key == "seed") {
          config.seed = std::strtoull(value.c_str(), &endp, 0);
          if (endp == value.c_str() || *endp != '\0') return false;
          have_seed = true;
        } else if (key == "rate") {
          config.rate = std::strtod(value.c_str(), &endp);
          if (endp == value.c_str() || *endp != '\0') return false;
          if (config.rate < 0.0 || config.rate > 1.0) return false;
        } else if (key == "sites") {
          if (value.empty()) return false;
          config.sites = value;
        } else if (key == "max") {
          config.max_per_site = std::strtoull(value.c_str(), &endp, 0);
          if (endp == value.c_str() || *endp != '\0') return false;
        } else {
          return false;
        }
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (!have_seed) return false;
  configure(config);
  return true;
}

bool configure_from_env() {
  const char* env = std::getenv("RCR_FAULTS");
  if (env == nullptr || env[0] == '\0') return false;
  return configure_spec(env);
}

namespace {
// Arms the injector before main() when RCR_FAULTS is set, so any binary can
// be driven from the environment without code changes.  Lives in this TU so
// it runs after the injector's own globals are initialized; the TU is always
// linked because every guarded solver references should_inject().
[[maybe_unused]] const bool g_env_armed = configure_from_env();
}  // namespace

void disable() {
  FaultConfig off;
  off.enabled = false;
  configure(off);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

FaultConfig config() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.config;
}

std::string replay_spec() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.config.enabled) return "";
  std::string spec = "seed=" + std::to_string(s.config.seed);
  if (s.config.rate != 1.0) spec += ",rate=" + std::to_string(s.config.rate);
  if (s.config.sites != "*") spec += ",sites=" + s.config.sites;
  if (s.config.max_per_site != ~0ull)
    spec += ",max=" + std::to_string(s.config.max_per_site);
  return spec;
}

const std::vector<std::string>& registered_sites() { return site_registry(); }

bool should_inject(const char* site) {
  if (!g_enabled.load(std::memory_order_relaxed)) return false;
  std::uint64_t key = 0;
  {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    key = s.hits[site]++;
  }
  return should_inject_keyed(site, key);
}

bool should_inject(const char* site, std::uint64_t key) {
  return should_inject_keyed(site, key);
}

double corrupt(const char* site, double value) {
  return should_inject(site) ? std::numeric_limits<double>::quiet_NaN()
                             : value;
}

double corrupt(const char* site, std::uint64_t key, double value) {
  return should_inject(site, key)
             ? std::numeric_limits<double>::quiet_NaN()
             : value;
}

void maybe_stall(const char* site) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (should_inject(site))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

std::uint64_t injection_count(const char* site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.injections.find(site);
  return it == s.injections.end() ? 0 : it->second;
}

std::uint64_t total_injections() {
  return state().total.load(std::memory_order_relaxed);
}

void reset_counters() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.hits.clear();
  s.injections.clear();
  s.total.store(0, std::memory_order_relaxed);
}

ScopedFaults::ScopedFaults(const FaultConfig& cfg) {
  previous_ = config();
  had_previous_ = previous_.enabled;
  configure(cfg);
}

ScopedFaults::ScopedFaults(const std::string& spec) {
  previous_ = config();
  had_previous_ = previous_.enabled;
  if (!configure_spec(spec)) disable();
}

ScopedFaults::~ScopedFaults() {
  if (had_previous_) {
    configure(previous_);
  } else {
    disable();
  }
}

}  // namespace rcr::robust::faults
