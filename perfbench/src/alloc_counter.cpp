#include "alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_net{0};
std::atomic<long long> g_peak{0};

void note_alloc(void* p) noexcept {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  const auto size = static_cast<long long>(malloc_usable_size(p));
  const long long now = g_net.fetch_add(size, std::memory_order_relaxed) + size;
  long long peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) noexcept {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  g_net.fetch_sub(static_cast<long long>(malloc_usable_size(p)), std::memory_order_relaxed);
}

void* alloc_or_throw(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* aligned_or_throw(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;  // aligned_alloc wants a multiple
  void* p = std::aligned_alloc(a, size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  note_free(p);
  std::free(p);
}

}  // namespace

HeapWindow::HeapWindow() {
  g_net.store(0, std::memory_order_relaxed);
  g_peak.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

HeapWindow::~HeapWindow() { g_counting.store(false, std::memory_order_seq_cst); }

std::size_t HeapWindow::peak_bytes() const noexcept {
  return static_cast<std::size_t>(g_peak.load(std::memory_order_relaxed));
}

}  // namespace perfbench

// ---- global replacements -------------------------------------------------

void* operator new(std::size_t n) { return perfbench::alloc_or_throw(n); }
void* operator new[](std::size_t n) { return perfbench::alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc_or_throw(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::alloc_or_throw(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return perfbench::aligned_or_throw(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::aligned_or_throw(n, al);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return perfbench::aligned_or_throw(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return perfbench::aligned_or_throw(n, al);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { perfbench::release(p); }
void operator delete[](void* p) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t) noexcept { perfbench::release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { perfbench::release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  perfbench::release(p);
}
