#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_bytes{0};

void note(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  note(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  void* p = nullptr;
  std::size_t align = static_cast<std::size_t>(al);
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) return nullptr;
  return p;
}

}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

Totals totals() {
  return Totals{g_allocs.load(std::memory_order_relaxed),
                g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;

void* operator new(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = allocate_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = allocate_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
