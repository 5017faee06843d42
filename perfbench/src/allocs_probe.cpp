#include "allocs.hpp"

#include "rcr/rt/alloc_probe.hpp"

namespace perfbench {

bool allocs_counted() { return rcr::rt::alloc_probe_active(); }
std::uint64_t allocs_now() { return rcr::rt::alloc_count(); }

}  // namespace perfbench
