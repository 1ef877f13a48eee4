#include "obs/thread_slot.hpp"

#include <pthread.h>

#include <bitset>
#include <cstdint>
#include <cstdlib>
#include <mutex>

namespace sntrust::obs {

namespace {

/// Which slots are leased. The mutex also orders one thread's writes to a
/// slot's state before the next holder's reads.
class SlotTable {
 public:
  std::size_t lease() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t slot = 0; slot < kThreadSlots; ++slot)
      if (!leased_[slot]) {
        leased_[slot] = true;
        return slot;
      }
    return kThreadSlots;
  }

  void release(std::size_t slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    leased_[slot] = false;
  }

 private:
  std::mutex mutex_;
  std::bitset<kThreadSlots> leased_;
};

SlotTable& slot_table() {
  // Leaked: threads still exit, and return their slots, during static
  // destruction.
  static SlotTable* table = new SlotTable();
  return *table;
}

/// Runs at thread exit, after the thread's C++ thread_local destructors.
void release_slot(void* lease) {
  slot_table().release(reinterpret_cast<std::uintptr_t>(lease) - 1);
  // Nothing of this thread should record after this; if something does,
  // it takes the shared entry.
  detail::t_thread_slot = kThreadSlots;
}

// A pthread key rather than a thread_local with a destructor: registering
// that destructor callocs from the calling thread's malloc arena, and a
// pool worker's first metric lands in the middle of a computation, where
// even a small long-lived block fragments the arena (DESIGN.md §7). The
// values of a process's first 32 keys live in the thread descriptor.
pthread_key_t lease_key() {
  static const pthread_key_t key = [] {
    pthread_key_t created;
    if (pthread_key_create(&created, release_slot) != 0) std::abort();
    return created;
  }();
  return key;
}

}  // namespace

std::size_t detail::lease_thread_slot() noexcept {
  const pthread_key_t key = lease_key();
  const std::size_t slot = slot_table().lease();
  // The key's destructor runs only for a non-null value: slot + 1.
  if (slot < kThreadSlots &&
      pthread_setspecific(key, reinterpret_cast<void*>(slot + 1)) != 0) {
    slot_table().release(slot);
    t_thread_slot = kThreadSlots;
    return kThreadSlots;
  }
  t_thread_slot = slot;
  return slot;
}

}  // namespace sntrust::obs
