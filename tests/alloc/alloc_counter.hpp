#pragma once
// Heap accounting for the allocation gates (elpc_alloc_tests).
// alloc_counter.cpp replaces the global operator new with a counting
// one, which is why these tests build as their own executable instead of
// joining elpc_tests.

#include <cstddef>

namespace elpc::alloc_gate {

/// Calls to operator new and the bytes they asked for.
struct HeapUse {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};

/// Running totals since the process started.
[[nodiscard]] HeapUse heap_use_so_far();

/// Heap allocations and bytes `f` makes.
template <typename F>
HeapUse heap_use(F&& f) {
  const HeapUse before = heap_use_so_far();
  f();
  const HeapUse after = heap_use_so_far();
  return {after.allocations - before.allocations, after.bytes - before.bytes};
}

}  // namespace elpc::alloc_gate
