#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace nfbench::alloc_count {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  const auto alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void set_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace nfbench::alloc_count

using nfbench::alloc_count::allocate;
using nfbench::alloc_count::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
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
