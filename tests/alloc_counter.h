// Counts heap allocations for the allocation tests. Including this header
// replaces the global operator new and delete of the whole test binary, so
// include it from that binary's one source file; no other suite pays for
// the count.
#ifndef VFLFIA_TESTS_ALLOC_COUNTER_H_
#define VFLFIA_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::size_t> g_allocations{0};

/// Heap allocations made, on any thread, while `fn` runs.
template <typename Fn>
std::size_t CountAllocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

inline void Count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void* CountedAlloc(std::size_t size) {
  Count();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

inline void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  Count();
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace alloc_counter

void* operator new(std::size_t size) {
  return alloc_counter::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return alloc_counter::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_counter::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_counter::CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // VFLFIA_TESTS_ALLOC_COUNTER_H_
