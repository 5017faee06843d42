// Heap-allocation counter seam.  The traced binary links rcr_allocprobe and
// reads its process-wide count; the untraced binary keeps the production
// allocator, so its timings carry no counting cost.
#pragma once

#include <cstdint>

namespace perfbench {

/// True when this binary counts allocations.
bool allocs_counted();

/// Heap allocations so far (0 when not counted).
std::uint64_t allocs_now();

}  // namespace perfbench
