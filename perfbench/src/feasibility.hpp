// Correctness gate for one served cell-tick.
#pragma once

#include <string>
#include <vector>

#include "rcr/qos/rra.hpp"

namespace perfbench {

/// Outcome of checking one served answer; `reason` is a static string and
/// nullptr when the answer passes.
struct CellCheck {
  const char* reason = nullptr;
  bool ok() const { return reason == nullptr; }
};

/// Check a served answer against its problem: the assignment has one
/// in-range user index per RB, every power is finite and nonnegative, the
/// powers sum to the cell budget (relative tolerance 1e-9), and the answer
/// did not come from the deadline fill (the service's no-information
/// equal split when no solver could run).
CellCheck check_cell(const rcr::qos::RraProblem& problem,
                     const rcr::qos::Assignment& assignment,
                     const std::vector<double>& power,
                     const std::string& step);

/// Users of the cell that reach their QoS rate floor under the served
/// answer.  Call only on answers that passed check_cell.
std::size_t users_at_rate_floor(const rcr::qos::RraProblem& problem,
                       const rcr::qos::Assignment& assignment,
                       const std::vector<double>& power);

}  // namespace perfbench
