// Heap-allocation counter local to the benchmark binary: alloc_count.cpp
// replaces the global operator new/delete, and counts every operator new
// made by any thread while counting is switched on. The benchmark switches
// it on around its timed calls into the program only, so frame generation
// and the oracle are never counted.
#pragma once

#include <cstdint>

namespace nfbench::alloc_count {

void set_counting(bool on);
/// operator new calls counted so far.
std::uint64_t allocations();

}  // namespace nfbench::alloc_count
