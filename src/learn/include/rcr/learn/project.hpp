// Box feasibility projection for learned solver outputs.
//
// A learned component is only trustworthy when its output is feasible *by
// construction*: whatever the network emits -- including NaN/Inf garbage
// from corrupted weights -- the projection maps it into the box
// lo <= x <= hi before anything downstream sees it.
//
// Contract (enforced by tests/learn/test_projection.cpp and the
// fuzz_projection driver):
//  - totality: any input, including non-finite entries, maps to a feasible
//    point (a non-finite entry becomes its coordinate's box midpoint);
//  - idempotence: projection is a bitwise fixed point (P(P(x)) == P(x));
//  - determinism: results are pure functions of the input -- no global
//    state, no thread-count dependence.
#pragma once

#include <cstddef>

#include "rcr/numerics/vector_ops.hpp"

namespace rcr::learn {

using rcr::Vec;

/// Clamp v into [lo, hi] elementwise; a non-finite entry becomes the box
/// midpoint of its coordinate.  Requires lo[i] <= hi[i], both finite
/// (throws std::invalid_argument otherwise) -- and is then bitwise
/// idempotent.
void project_box(double* v, const double* lo, const double* hi,
                 std::size_t n);
Vec project_box(Vec v, const Vec& lo, const Vec& hi);

/// True when every entry of v lies in [lo - tol, hi + tol] and is finite.
bool box_feasible(const Vec& v, const Vec& lo, const Vec& hi,
                  double tol = 0.0);

}  // namespace rcr::learn
