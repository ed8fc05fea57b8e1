// alloc_count.cpp — a counting global operator new for the benchmark binary.
//
// heap.allocs_per_frame and heap.bytes_per_frame are deltas of these
// counters across the measured window. The replacements forward to malloc
// (or aligned_alloc for over-aligned types) exactly as the default ones do,
// so the untraced run pays two integer increments per allocation and
// nothing else.
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  g_bytes += n;
  // aligned_alloc wants the size as a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t size = (n == 0 ? a : (n + a - 1) / a * a);
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace e2e {
HeapCounts heap_counts() { return HeapCounts{g_allocs, g_bytes}; }
}  // namespace e2e

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
