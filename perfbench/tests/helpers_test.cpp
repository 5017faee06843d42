// Tests for the benchmark's own helpers: the percentile rule, the
// feasibility checker, and the span self-time arithmetic.  Plain checks so
// the benchmark package needs no test framework; exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "feasibility.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using namespace perfbench;
  // Nearest rank: ceil(p/100 * n).
  CHECK(nearest_rank(50.0, 10) == 5);
  CHECK(nearest_rank(99.0, 1000) == 990);
  CHECK(nearest_rank(99.0, 384) == 381);
  CHECK(nearest_rank(1.0, 5) == 1);
  CHECK(nearest_rank(100.0, 7) == 7);
  // 384 samples: p99 has only 3 samples beyond it, so the tail falls back
  // to p97, the highest whole percentile with at least ten beyond.
  CHECK(samples_beyond(99.0, 384) == 3);
  const Percentile t384 = tail_percentile(iota(384));
  CHECK(near(t384.p, 97.0));
  CHECK(t384.beyond >= 10);
  CHECK(samples_beyond(98.0, 384) < 10);
  CHECK(t384.n == 384);
  CHECK(near(t384.value, 373.0));
  // 1000 samples support p99 with exactly ten beyond.
  const Percentile t1000 = tail_percentile(iota(1000));
  CHECK(near(t1000.p, 99.0));
  CHECK(t1000.beyond == 10);
  CHECK(near(t1000.value, 990.0));
  // Too few samples for any tail.
  const Percentile t15 = tail_percentile(iota(15));
  CHECK(near(t15.p, 0.0));
  CHECK(t15.n == 15);
  // Order does not matter; median of even and odd sets.
  const Percentile p50 = percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50.0);
  CHECK(near(p50.value, 3.0));
  CHECK(p50.beyond == 2);
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  CHECK(near(median({7.0}), 7.0));
  CHECK(near(median({}), 0.0));
}

void feasibility_checker() {
  using perfbench::check_cell;
  rcr::qos::RraProblem pb;
  pb.gain = rcr::num::Matrix(2, 3, 1.0);
  pb.total_power = 3.0;
  pb.min_rate = {0.5, 0.5};
  const rcr::qos::Assignment a = {0, 1, 0};
  CHECK(check_cell(pb, a, {1.0, 1.0, 1.0}, "admm").ok());
  CHECK(check_cell(pb, a, {1.5, 1.5, 0.0}, "cache").ok());
  CHECK(!check_cell(pb, a, {1.0, 1.0, 1.0}, "deadline-fill").ok());
  CHECK(!check_cell(pb, {0, 2, 0}, {1.0, 1.0, 1.0}, "admm").ok());
  CHECK(!check_cell(pb, {0, 1}, {1.0, 1.0, 1.0}, "admm").ok());
  CHECK(!check_cell(pb, a, {1.0, 2.0}, "admm").ok());
  CHECK(!check_cell(pb, a, {2.0, 2.0, -1.0}, "admm").ok());
  CHECK(!check_cell(pb, a, {1.0, 1.0, 1.1}, "admm").ok());
  CHECK(!check_cell(pb, a, {1.0, 1.0, 0.9}, "admm").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  CHECK(!check_cell(pb, a, {nan, 1.0, 1.0}, "admm").ok());
  CHECK(!check_cell(pb, a, {inf, 1.0, 1.0}, "admm").ok());
  // Rounding-level budget drift passes.
  CHECK(check_cell(pb, a, {1.0, 1.0, 1.0 + 1e-13}, "admm").ok());
  // Rate floors: user 1 gets RB 1 only.
  CHECK(perfbench::users_at_rate_floor(pb, a, {1.0, 1.0, 1.0}) == 2);
  CHECK(perfbench::users_at_rate_floor(pb, a, {1.5, 0.0, 1.5}) == 1);
}

perfbench::TraceEvent ev(const char* name, char ph, double ts, int tid = 0) {
  return perfbench::TraceEvent{name, ph, ts, tid};
}

void self_time_arithmetic() {
  using namespace perfbench;
  // tick [0,100] with two chain children [10,40] and [50,60]; the first has
  // an admm child [15,35].  A second thread runs an unrelated span.
  const std::vector<TraceEvent> events = {
      ev("serve.tick", 'B', 0.0),    ev("fallback.run", 'B', 10.0),
      ev("admm.box_qp", 'B', 15.0),  ev("other", 'B', 12.0, 1),
      ev("admm.box_qp", 'E', 35.0),  ev("fallback.run", 'E', 40.0),
      ev("fallback.run", 'B', 50.0), ev("fallback.run", 'E', 60.0),
      ev("other", 'E', 90.0, 1),     ev("serve.tick", 'E', 100.0),
  };
  const std::vector<SpanRec> spans = build_spans(events);
  CHECK(spans.size() == 5);
  CHECK(spans[0].name == "serve.tick");
  CHECK(near(spans[0].dur_us(), 100.0));
  CHECK(near(spans[0].child_us, 40.0));
  CHECK(near(spans[0].self_us(), 60.0));
  CHECK(spans[1].parent == 0);
  CHECK(near(spans[1].self_us(), 10.0));
  CHECK(spans[2].parent == 1);
  CHECK(spans[3].parent == -1);  // other thread: not a child of the tick
  CHECK(near(spans[3].self_us(), 78.0));
  CHECK(near(spans[4].self_us(), 10.0));

  Attribution a;
  a.add(100.0, 40.0, 30.0);
  a.add(50.0, 20.0, 10.0);
  CHECK(near(a.self_us_per_span(), 25.0));
  CHECK(near(a.coverage(), 100.0 / 150.0));
  Attribution over;  // replay costing more than the span left over
  over.add(10.0, 6.0, 6.0);
  CHECK(near(over.self_us_per_span(), -2.0));
  CHECK(near(over.coverage(), 1.2));

  // Malformed traces are rejected, not silently mis-nested.
  bool threw = false;
  try {
    build_spans({ev("a", 'B', 0.0), ev("b", 'E', 1.0)});
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    build_spans({ev("a", 'B', 0.0)});
  } catch (const std::exception&) {
    threw = true;
  }
  CHECK(threw);
}

void trace_parsing() {
  using namespace perfbench;
  const std::string json =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"B\", "
      "\"ts\": 10.250, \"pid\": 1, \"tid\": 3},"
      "{\"name\": \"fallback.run\", \"cat\": \"rcr\", \"ph\": \"B\", "
      "\"ts\": 11.000, \"pid\": 1, \"tid\": 3, \"args\": {\"name\": "
      "\"x\\\"y\", \"attempts\": 1}},"
      "{\"name\": \"fallback.run\", \"cat\": \"rcr\", \"ph\": \"E\", "
      "\"ts\": 12.500, \"pid\": 1, \"tid\": 3},"
      "{\"name\": \"serve.tick\", \"cat\": \"rcr\", \"ph\": \"E\", "
      "\"ts\": 20.250, \"pid\": 1, \"tid\": 3}]}";
  const std::vector<TraceEvent> events = parse_trace_events(json);
  CHECK(events.size() == 4);
  CHECK(events[1].name == "fallback.run");
  CHECK(events[1].ph == 'B');
  CHECK(events[0].tid == 3);
  const std::vector<SpanRec> spans = build_spans(events);
  CHECK(near(spans[0].self_us(), 8.5));
  CHECK(parse_trace_events("{\"traceEvents\": []}").empty());
}

}  // namespace

int main() {
  percentile_rule();
  feasibility_checker();
  self_time_arithmetic();
  trace_parsing();
  if (g_failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
