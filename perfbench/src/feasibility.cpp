#include "feasibility.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

CellCheck check_cell(const rcr::qos::RraProblem& problem,
                     const rcr::qos::Assignment& assignment,
                     const std::vector<double>& power,
                     const std::string& step) {
  CellCheck out;
  const std::size_t n = problem.num_rbs();
  if (step == "deadline-fill") {
    out.reason = "answered by deadline-fill";
  } else if (assignment.size() != n) {
    out.reason = "assignment length differs from the RB count";
  } else if (power.size() != n) {
    out.reason = "power length differs from the RB count";
  } else {
    double total = 0.0;
    for (std::size_t rb = 0; rb < n && out.ok(); ++rb) {
      if (assignment[rb] >= problem.num_users())
        out.reason = "assignment index out of range";
      else if (!std::isfinite(power[rb]))
        out.reason = "non-finite power";
      else if (power[rb] < 0.0)
        out.reason = "negative power";
      else
        total += power[rb];
    }
    const double budget = problem.total_power;
    if (out.ok() &&
        std::fabs(total - budget) > 1e-9 * std::max(1.0, std::fabs(budget)))
      out.reason = "power does not sum to the cell budget";
  }
  return out;
}

std::size_t users_at_rate_floor(const rcr::qos::RraProblem& problem,
                       const rcr::qos::Assignment& assignment,
                       const std::vector<double>& power) {
  const std::vector<double> rates =
      rcr::qos::per_user_rates(problem, assignment, power);
  std::size_t met = 0;
  for (std::size_t u = 0; u < rates.size(); ++u)
    if (u >= problem.min_rate.size() || rates[u] >= problem.min_rate[u]) ++met;
  return met;
}

}  // namespace perfbench
