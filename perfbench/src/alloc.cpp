// Counting global operator new/delete: live heap bytes (by the
// allocator's usable size), their peak, and the allocation count. The
// counters are relaxed atomics; the peak is raised with a CAS only when
// the live total passes it, which after warm-up is rare.
#include "common.h"

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};

void on_alloc(void* p) {
  const std::size_t n = malloc_usable_size(p);
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void on_free(void* p) {
  if (p != nullptr) g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  on_alloc(p);
  return p;
}

void* aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

} // namespace

namespace pb::heap {
void keep_freed_memory() {
#ifdef M_TRIM_THRESHOLD
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
}
std::size_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::size_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_peak() { g_peak.store(live_bytes(), std::memory_order_relaxed); }
std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }
} // namespace pb::heap

void* operator new(std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new[](std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }
void* operator new(std::size_t n, std::align_val_t al) { return checked(aligned(n, al)); }
void* operator new[](std::size_t n, std::align_val_t al) { return checked(aligned(n, al)); }

void operator delete(void* p) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  on_free(p);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  on_free(p);
  std::free(p);
}
