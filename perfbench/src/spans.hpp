// Span reconstruction and self-time arithmetic over rcr::obs trace exports.
//
// The program's spans (serve.tick, fallback.run, admm.box_qp, ...) and the
// benchmark's own replay spans land in the same per-thread ring buffers;
// obs::trace_json() exports them as chrome://tracing begin/end events.  The
// benchmark parses that export back into spans, nests them per thread, and
// computes self times: a span's duration minus the part its direct
// children cover.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One chrome://tracing event: `ph` is 'B' (begin) or 'E' (end).
struct TraceEvent {
  std::string name;
  char ph = 0;
  double ts_us = 0.0;
  int tid = 0;
};

/// Parse the "traceEvents" array of an obs::trace_json() document.  Throws
/// std::runtime_error on malformed input.
std::vector<TraceEvent> parse_trace_events(const std::string& json);

/// A matched begin/end pair.
struct SpanRec {
  std::string name;
  int tid = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
  int parent = -1;        ///< Index of the enclosing span on the same thread.
  double child_us = 0.0;  ///< Summed durations of direct children.

  double dur_us() const { return end_us - begin_us; }
  double self_us() const { return dur_us() - child_us; }
};

/// Match begin/end events per thread (each thread's events are in time
/// order) into spans, ordered by begin event.  Nesting follows the per-thread
/// stack, so a child is any span that begins and ends inside another on the
/// same thread.  Throws std::runtime_error on an end without a begin, a
/// mismatched name, or a span left open.
std::vector<SpanRec> build_spans(const std::vector<TraceEvent>& events);

/// Totals over a set of spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;

  double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};

/// Time of an enclosing span split three ways: the program's traced child
/// spans, the replayed per-call work the benchmark attributes to it, and
/// the rest (self time).
struct Attribution {
  double span_us = 0.0;
  double child_us = 0.0;
  double replay_us = 0.0;
  std::size_t spans = 0;

  void add(double span, double child, double replay) {
    span_us += span;
    child_us += child;
    replay_us += replay;
    ++spans;
  }
  /// Unattributed time per enclosing span.  Negative when the replay costs
  /// more than the traced span left over; reported as measured.
  double self_us_per_span() const {
    return spans == 0 ? 0.0
                      : (span_us - child_us - replay_us) /
                            static_cast<double>(spans);
  }
  /// Share of the enclosing spans' time covered by children and replay.
  double coverage() const {
    return span_us > 0.0 ? (child_us + replay_us) / span_us : 0.0;
  }
};

}  // namespace perfbench
