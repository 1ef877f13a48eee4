// Thread slots: a small per-thread index for state sharded by thread.
//
// The metric shards (obs/metrics, obs/quantile) and the serving reader
// slots (serve/trust_service) keep one cache line or buffer per thread, so
// that a thread's hot-path writes land on no line another thread writes.
// `thread_slot()` is the calling thread's index into such an array: the
// lowest free slot, leased on the thread's first call and returned when the
// thread exits, so short-lived threads reuse slots. A thread that finds
// every slot leased gets `kThreadSlots`, and each sharded structure keeps
// one shared entry at that index for such threads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sntrust::obs {

/// Slots leased at once: room for the pool's workers and the serving
/// clients of any host this code targets.
inline constexpr std::size_t kThreadSlots = 64;
/// Per-thread entries are aligned to this, so no two share a cache line.
inline constexpr std::size_t kCacheLineBytes = 64;

namespace detail {
inline constexpr std::size_t kUnleasedSlot = SIZE_MAX;
/// The calling thread's slot; kUnleasedSlot until its first thread_slot().
inline thread_local std::size_t t_thread_slot = kUnleasedSlot;
std::size_t lease_thread_slot() noexcept;
}  // namespace detail

/// The calling thread's slot in [0, kThreadSlots); kThreadSlots when every
/// slot was leased at its first call, and from its thread-exit destructors
/// on.
inline std::size_t thread_slot() noexcept {
  const std::size_t slot = detail::t_thread_slot;
  return slot != detail::kUnleasedSlot ? slot : detail::lease_thread_slot();
}

}  // namespace sntrust::obs
