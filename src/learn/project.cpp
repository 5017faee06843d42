#include "rcr/learn/project.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rcr::learn {

void project_box(double* v, const double* lo, const double* hi,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lo[i] <= hi[i]) || !std::isfinite(lo[i]) || !std::isfinite(hi[i]))
      throw std::invalid_argument("project_box: invalid bounds");
    double x = v[i];
    if (!std::isfinite(x)) x = 0.5 * (lo[i] + hi[i]);
    v[i] = std::clamp(x, lo[i], hi[i]);
  }
}

Vec project_box(Vec v, const Vec& lo, const Vec& hi) {
  if (v.size() != lo.size() || v.size() != hi.size())
    throw std::invalid_argument("project_box: size mismatch");
  project_box(v.data(), lo.data(), hi.data(), v.size());
  return v;
}

bool box_feasible(const Vec& v, const Vec& lo, const Vec& hi, double tol) {
  if (v.size() != lo.size() || v.size() != hi.size()) return false;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return false;
    if (v[i] < lo[i] - tol || v[i] > hi[i] + tol) return false;
  }
  return true;
}

}  // namespace rcr::learn
