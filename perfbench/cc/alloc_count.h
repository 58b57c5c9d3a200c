// Heap-allocation counting for the traced run. alloc_count.cc replaces the
// global operator new/delete of the benchmark binary only (the libraries are
// untouched); counting is off until set_counting(true), so the untraced run
// pays one relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Totals {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
};

void set_counting(bool on);
// Allocations (and bytes requested) since the process started counting,
// summed over every thread.
Totals totals();

}  // namespace perfbench::alloc
