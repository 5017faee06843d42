#include "spans.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/// Minimal cursor over the trace export.  The export is machine-written by
/// obs::trace_json(), so the scanner only needs JSON objects, arrays,
/// strings (with escapes) and numbers.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool peek(char c) {
    ws();
    return i_ < s_.size() && s_[i_] == c;
  }
  void expect(char c) {
    if (!peek(c)) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) break;
        if (s_[i_] == 'u') {
          i_ += 4;  // Control characters only; not needed for matching.
          out += '?';
          ++i_;
          continue;
        }
        const char c = s_[i_];
        out += c == 'n' ? '\n' : c == 't' ? '\t' : c;
        ++i_;
        continue;
      }
      out += s_[i_++];
    }
    expect('"');
    return out;
  }
  double number() {
    ws();
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }
  /// Skip any JSON value.
  void skip() {
    ws();
    if (i_ >= s_.size()) fail("unexpected end");
    const char c = s_[i_];
    if (c == '"') {
      string();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      if (peek(close)) {
        ++i_;
        return;
      }
      for (;;) {
        if (c == '{') {
          string();
          expect(':');
        }
        skip();
        if (peek(',')) {
          ++i_;
          continue;
        }
        expect(close);
        return;
      }
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      while (i_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[i_])))
        ++i_;
    } else {
      number();
    }
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace parse error at offset " +
                             std::to_string(i_) + ": " + what);
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

std::vector<TraceEvent> parse_trace_events(const std::string& json) {
  std::vector<TraceEvent> events;
  Cursor cur(json);
  cur.expect('{');
  bool found = false;
  while (!cur.peek('}')) {
    const std::string key = cur.string();
    cur.expect(':');
    if (key != "traceEvents") {
      cur.skip();
    } else {
      found = true;
      cur.expect('[');
      while (!cur.peek(']')) {
        TraceEvent ev;
        cur.expect('{');
        while (!cur.peek('}')) {
          const std::string field = cur.string();
          cur.expect(':');
          if (field == "name") {
            ev.name = cur.string();
          } else if (field == "ph") {
            const std::string ph = cur.string();
            ev.ph = ph.empty() ? 0 : ph[0];
          } else if (field == "ts") {
            ev.ts_us = cur.number();
          } else if (field == "tid") {
            ev.tid = static_cast<int>(cur.number());
          } else {
            cur.skip();
          }
          if (cur.peek(',')) cur.expect(',');
        }
        cur.expect('}');
        events.push_back(std::move(ev));
        if (cur.peek(',')) cur.expect(',');
      }
      cur.expect(']');
    }
    if (cur.peek(',')) cur.expect(',');
  }
  cur.expect('}');
  if (!found) cur.fail("no traceEvents array");
  return events;
}

std::vector<SpanRec> build_spans(const std::vector<TraceEvent>& events) {
  std::vector<SpanRec> spans;
  std::map<int, std::vector<int>> open;  // tid -> stack of span indices
  for (const TraceEvent& ev : events) {
    std::vector<int>& stack = open[ev.tid];
    if (ev.ph == 'B') {
      SpanRec rec;
      rec.name = ev.name;
      rec.tid = ev.tid;
      rec.begin_us = ev.ts_us;
      rec.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(std::move(rec));
    } else if (ev.ph == 'E') {
      if (stack.empty())
        throw std::runtime_error("trace: end of '" + ev.name +
                                 "' without a begin");
      SpanRec& rec = spans[static_cast<std::size_t>(stack.back())];
      if (rec.name != ev.name)
        throw std::runtime_error("trace: end of '" + ev.name +
                                 "' closes '" + rec.name + "'");
      rec.end_us = ev.ts_us;
      stack.pop_back();
      if (rec.parent >= 0)
        spans[static_cast<std::size_t>(rec.parent)].child_us += rec.dur_us();
    }
  }
  for (const auto& entry : open)
    if (!entry.second.empty())
      throw std::runtime_error("trace: span '" +
                               spans[static_cast<std::size_t>(
                                         entry.second.back())]
                                   .name +
                               "' left open");
  return spans;
}

}  // namespace perfbench
