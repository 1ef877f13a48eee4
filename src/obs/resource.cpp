#include "obs/resource.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define SNTRUST_HAVE_GETRUSAGE 1
#endif

namespace sntrust::obs {

namespace {

// The hooks run during static initialization and inside operator new, so
// everything here must be allocation-free: raw atomics only.
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_free_count{0};
std::atomic<bool> g_counting{false};

inline bool counting() { return g_counting.load(std::memory_order_relaxed); }

inline void note_alloc(std::size_t size) {
  if (!counting()) return;
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

inline void note_free(void* ptr) {
  if (ptr == nullptr || !counting()) return;
  g_free_count.fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t size) {
  // malloc(0) may return nullptr; operator new must return a unique pointer.
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc{};
  return ptr;
}

void* aligned_malloc(std::size_t size, std::size_t alignment) {
  if (alignment < alignof(std::max_align_t)) alignment = alignof(std::max_align_t);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded = (size + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, padded == 0 ? alignment : padded);
  if (ptr == nullptr) throw std::bad_alloc{};
  return ptr;
}

}  // namespace

ResourceUsage resource_usage_now() {
  ResourceUsage usage;
#ifdef SNTRUST_HAVE_GETRUSAGE
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.user_cpu_ns =
        static_cast<std::uint64_t>(ru.ru_utime.tv_sec) * 1000000000ull +
        static_cast<std::uint64_t>(ru.ru_utime.tv_usec) * 1000ull;
    usage.system_cpu_ns =
        static_cast<std::uint64_t>(ru.ru_stime.tv_sec) * 1000000000ull +
        static_cast<std::uint64_t>(ru.ru_stime.tv_usec) * 1000ull;
#ifdef __APPLE__
    usage.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    usage.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024ull;
#endif
  }
#endif
  usage.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  usage.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  usage.free_count = g_free_count.load(std::memory_order_relaxed);
  return usage;
}

bool alloc_stats_enabled() { return counting(); }

void set_alloc_stats_enabled(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

}  // namespace sntrust::obs

// ---------------------------------------------------------------------------
// Global operator new/delete replacements. Linked into every binary that
// pulls in the obs layer (the tracer references resource_usage_now, so in
// practice every binary in the repo). Counting is runtime-gated above.
// ---------------------------------------------------------------------------

void* operator new(std::size_t size) {
  sntrust::obs::note_alloc(size);
  return sntrust::obs::checked_malloc(size);
}

void* operator new[](std::size_t size) {
  sntrust::obs::note_alloc(size);
  return sntrust::obs::checked_malloc(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  sntrust::obs::note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  sntrust::obs::note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  sntrust::obs::note_alloc(size);
  return sntrust::obs::aligned_malloc(size,
                                      static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  sntrust::obs::note_alloc(size);
  return sntrust::obs::aligned_malloc(size,
                                      static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  sntrust::obs::note_free(ptr);
  std::free(ptr);
}
