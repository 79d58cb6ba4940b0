// Drop-tail interface queue (IFQ) between the network layer and the MAC.
//
// Table 5.1 of the paper: 50-packet drop-tail IFQ per node. Queue overflow
// here is the "congestion loss" the paper's TCP variants react to, and its
// occupancy is the main input to the Muzha DRAI estimator.
//
// A fixed ring of capacity() entries, allocated at the first enqueue: most
// of a city's queues never hold a packet and so never allocate. The device
// installs a before-change hook that runs before every enqueue and dequeue;
// it folds the busy samples due before the change, so each sample reads the
// length the queue had at its boundary.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"

namespace muzha {

class DropTailQueue {
 public:
  struct Entry {
    PacketPtr pkt;
    NodeId next_hop;
    // When the packet entered the queue; the device uses it to accumulate
    // per-hop queueing delay into the RoVegas IP option.
    SimTime enqueued_at;
  };

  using ChangeHook = InlineFunction<void()>;

  explicit DropTailQueue(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double occupancy() const {
    return capacity_ == 0 ? 0.0
                          : static_cast<double>(size_) /
                                static_cast<double>(capacity_);
  }

  // Runs before every enqueue and dequeue.
  void set_before_change(ChangeHook hook) { before_change_ = std::move(hook); }

  // Returns null, or `pkt` itself when the queue is full and refuses it.
  PacketPtr enqueue(PacketPtr pkt, NodeId next_hop,
                    SimTime now = SimTime::zero()) {
    if (before_change_) before_change_();
    if (size_ >= capacity_) return pkt;
    if (!ring_) ring_ = std::make_unique<Entry[]>(capacity_);
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    ring_[tail] = Entry{std::move(pkt), next_hop, now};
    if (++size_ > high_watermark_) high_watermark_ = size_;
    return nullptr;
  }

  Entry dequeue() {
    MUZHA_DCHECK(size_ > 0, "dequeue from an empty IFQ");
    if (before_change_) before_change_();
    Entry e = std::move(ring_[head_]);
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return e;
  }

  std::size_t high_watermark() const { return high_watermark_; }

 private:
  std::size_t capacity_;
  std::unique_ptr<Entry[]> ring_;  // null until the first enqueue
  std::size_t head_ = 0;           // index of the oldest entry
  std::size_t size_ = 0;
  ChangeHook before_change_;
  std::size_t high_watermark_ = 0;
};

}  // namespace muzha
