#include "allocs.hpp"

namespace perfbench {

bool allocs_counted() { return false; }
std::uint64_t allocs_now() { return 0; }

}  // namespace perfbench
