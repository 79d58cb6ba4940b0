#include "sim/scheduler.h"

#include "sim/assert.h"

namespace muzha {

std::uint32_t Scheduler::grow_pool() {
  MUZHA_ASSERT(meta_.size() < kNotInHeap, "event pool exhausted");
  const std::uint32_t slot = static_cast<std::uint32_t>(meta_.size());
  if ((slot >> kChunkShift) == chunks_.size()) {
    // Chunks are raw storage; each slot is placement-constructed exactly
    // once, when the pool first grows over it, so appending a chunk never
    // touches 16 KiB of cold memory up front.
    chunks_.push_back(
        std::make_unique<std::byte[]>(sizeof(EventCallback) * kChunkSlots));
  }
  meta_.emplace_back();
  ::new (static_cast<void*>(chunks_[slot >> kChunkShift].get() +
                            sizeof(EventCallback) * (slot & (kChunkSlots - 1))))
      EventCallback();
  return slot;
}

}  // namespace muzha
