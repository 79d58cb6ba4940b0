// Discrete-event scheduler — indexed 4-ary heap with true cancellation.
//
// The heap is a flat array of 24-byte entries carrying the (time, lead,
// sequence) sort key plus a slot index, so sift comparisons touch only
// contiguous heap memory. A fan-out of four halves the tree depth of a binary
// heap and keeps each child group nearly within one cache line.
//
// Determinism contract: simultaneous events fire in (lead descending, seq)
// order, where `lead` is how far ahead the event was scheduled (ns,
// saturated to 32 bits) and `seq` counts schedule calls. For ordinary events
// this is plain FIFO: at one firing time, a larger lead means an earlier
// schedule call and so a smaller seq. Together with integer SimTime it makes
// runs fully deterministic. The lead exists for schedule_chain_end(), which
// stands in for a chain of equally spaced events with the one at its end and
// must fire where that last link would have.
//
// Deferred keys: defer() reserves the key schedule_in() would give an event
// now, consuming its seq, and schedules nothing; schedule(key, cb) may push
// the callback under exactly that key later, and passed(key) tells whether
// such an event would already have run. Because the seq is consumed at the
// instant the event would have been scheduled, every other event keeps its
// seq, and a key scheduled late sorts exactly where the original would have.
// follow(start, delay) builds, without consuming a seq, the key of an event
// `delay` after the instant of key `start`: it sorts after every ordinary
// event at its (time, lead), and by start seq among follow keys. The PHY
// keys each signal's end this way from the signal's delivery key.
// last_at(t, ahead) is the key after every other key at (t, lead of
// `ahead`); the PHY keys its busy-sample boundaries this way.
//
// Per-event state is split structure-of-arrays style: the hot bookkeeping
// (generation + heap position, 8 bytes) lives in a dense vector that sift
// operations write through, while the 64-byte callbacks live out-of-line in
// fixed-size chunks whose addresses never change — growing the pool never
// runs a pending callback's move constructor.
//
// EventIds are generation-checked handles: the slot index in the high 32
// bits, the slot's generation in the low 32. Each slot records its heap
// position, so cancel() removes the event from the heap immediately
// (O(log n), no tombstones, no lazy skip) and bumps the generation so stale
// handles — including the id of an event that already fired — are no-ops.
//
// Callbacks are InlineFunction<void()>: every capture list is stored inline
// (a larger one does not compile), so schedule/fire performs zero heap
// allocations once the pool has warmed up. The schedule/fire/cancel path is
// defined inline in this header: event dispatch bounds whole-stack
// simulation rate, and the call sites (run loops, protocol timers) only
// optimize it when they can see through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/assert.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"

namespace muzha {

// Opaque event handle: (slot << 32) | generation. Generations start at 1 and
// skip 0 on wrap, so a valid id is never kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

using EventCallback = InlineFunction<void()>;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() {
    // Only events still in the heap hold live callbacks; every other
    // constructed slot is null, and a null InlineFunction's destructor is a
    // no-op, so skip them rather than walking the whole pool.
    for (const HeapEntry& e : heap_) slot_cb(e.slot).~EventCallback();
  }

  // An event's sort key: fires at `time`, ties broken by (lead descending,
  // seq).
  struct Key {
    SimTime time;
    std::uint64_t seq = 0;
    std::uint32_t lead = 0;
  };

  SimTime now() const { return now_; }

  // Schedules `cb` to run at absolute time `t` (must be >= now()). Accepts
  // any void() callable and constructs it directly into the event slot — an
  // explicit EventCallback argument works too and is moved.
  template <typename F>
  EventId schedule_at(SimTime t, F&& cb) {
    const Key key = key_at(t);
    return push(key.time, key.lead, key.seq, std::forward<F>(cb));
  }

  // Schedules `cb` to run `delay` from now (delay must be >= 0).
  template <typename F>
  EventId schedule_in(SimTime delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  // Schedules `cb` at `t` in place of a chain of `links` events `step` apart
  // in which each link schedules the next and only the last one (at `t`)
  // does any work. Among events at `t` it fires where that last link would:
  //   - after events scheduled more than `step` ahead;
  //   - before events scheduled less than `step` ahead;
  //   - of two chains ending together, the one with fewer links fires
  //     first. It started later, and a chain is started by an event that
  //     runs before any link due at the same instant (the MAC's IFS is longer
  //     than its slot), so its first link was scheduled first.
  // One limit: an ordinary event scheduled exactly `step` ahead fires before
  // the chain end, whereas the last link could have gone either way.
  template <typename F>
  EventId schedule_chain_end(SimTime t, SimTime step, std::uint32_t links,
                             F&& cb) {
    MUZHA_ASSERT(step > SimTime::zero() && step.ns() < kMaxLead,
                 "chain step must be positive and below the lead range");
    MUZHA_ASSERT(links >= 1 && links < (1u << (kFollowShift - kLinksShift)),
                 "chain link count out of range");
    MUZHA_DCHECK(next_seq_ < (std::uint64_t{1} << kLinksShift),
                 "sequence numbers overflowed into the chain links key");
    return push(t, static_cast<std::uint32_t>(step.ns()),
                (std::uint64_t{links} << kLinksShift) | next_seq_++,
                std::forward<F>(cb));
  }

  // The key schedule_in(delay) would give an event now. Consumes its seq;
  // schedules nothing.
  Key defer(SimTime delay) { return key_at(now_ + delay); }

  // The key of an event `delay` after the instant of `start`, an ordinary
  // key (deferred, scheduled or running). It stands for an event that the
  // one under `start` would schedule `delay` ahead as the last thing done at
  // its instant: among events at its (time, lead) it fires after every
  // ordinary one, and follow keys sharing a (time, lead) fire in the order
  // of their start seqs. Consumes no seq.
  static Key follow(const Key& start, SimTime delay) {
    MUZHA_DCHECK(start.seq < (std::uint64_t{1} << kLinksShift),
                 "follow() needs an ordinary start key");
    MUZHA_DCHECK(delay >= SimTime::zero(), "follow() delay must be >= 0");
    return {start.time + delay, kFollowBit | start.seq, lead_of(delay)};
  }

  // The key after every other key at time `t` whose lead is that of an
  // event scheduled `ahead` before `t`, and before every key there with a
  // smaller lead. Consumes no seq; nothing may be scheduled under it.
  static Key last_at(SimTime t, SimTime ahead) {
    return {t, ~std::uint64_t{0}, lead_of(ahead)};
  }

  // The key of the event now running. Between run_until() calls it sorts
  // after everything at now() and is no ordinary key.
  const Key& running() const { return running_; }

  // True when `key` sorts before the event now running, i.e. an event
  // under it would already have fired. Between run_until() calls the event
  // "now running" sorts after everything at now(), so there a key deferred
  // by zero has passed at once.
  bool passed(const Key& key) const { return earlier(key, running_); }

  // True when `a` fires strictly before `b` (heap entries or keys).
  template <typename A, typename B>
  static bool earlier(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.lead != b.lead) return a.lead > b.lead;
    return a.seq < b.seq;
  }

  // Schedules `cb` under `key`, a key from defer() or follow() that has not
  // passed.
  template <typename F>
  EventId schedule(const Key& key, F&& cb) {
    MUZHA_DCHECK(!passed(key), "scheduling a deferred key that has passed");
    return push(key.time, key.lead, key.seq, std::forward<F>(cb));
  }

  // Cancels a pending event: removes it from the heap eagerly and recycles
  // its slot. Cancelling an already-fired or invalid id is a no-op (the
  // generation check rejects stale handles), so callers may cancel
  // unconditionally.
  void cancel(EventId id) {
    if (id == kInvalidEventId) return;
    const std::uint32_t slot = slot_of(id);
    if (slot >= meta_.size()) return;
    MUZHA_DCHECK(gen_of(id) != 0,
                 "EventId with generation 0: forged or corrupted handle");
    SlotMeta& m = meta_[slot];
    if (m.gen != gen_of(id) || m.heap_pos == kNotInHeap) return;
    MUZHA_DCHECK(m.heap_pos < heap_.size() && heap_[m.heap_pos].slot == slot,
                 "slot/heap cross-link broken: cancelled EventId points at a "
                 "recycled slot (use-after-free of the handle)");
    remove_from_heap(slot);
    slot_cb(slot) = nullptr;
    release_slot(slot);
  }

  // Runs events until the queue drains or `t_end` is passed. Events at
  // exactly `t_end` are executed. Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end) {
    std::uint64_t n = 0;
    while (!heap_.empty()) {
      if (heap_[0].time > t_end) {
        now_ = t_end;
        running_ = after_all(now_);
        return n;
      }
      step();
      ++n;
    }
    if (now_ < t_end && t_end != SimTime::max()) now_ = t_end;
    running_ = after_all(now_);
    return n;
  }

  // Runs until the queue drains.
  std::uint64_t run() { return run_until(SimTime::max()); }

  // Executes at most one pending event. Returns false if the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    MUZHA_ASSERT(top.time >= now_, "event heap yielded a past event");
    MUZHA_DCHECK(meta_[top.slot].heap_pos == 0,
                 "heap top does not cross-link back to its slot");
    MUZHA_DCHECK(static_cast<bool>(slot_cb(top.slot)),
                 "firing slot holds no callback (double fire or slot "
                 "recycling bug)");
    now_ = top.time;
    running_ = {top.time, top.seq, top.lead};
    // Move the callback out and retire the slot before invoking: the
    // callback may schedule new events (growing the pool) or cancel its
    // own — now stale — id.
    EventCallback cb = std::move(slot_cb(top.slot));
    release_slot(top.slot);
    const HeapEntry filler = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, filler);
    ++executed_;
    cb();
    return true;
  }

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  // Callbacks are pooled in fixed-size chunks so growth never moves a live
  // callback and slot addresses stay stable across scheduling.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  // Leads saturate here (~4.3 s); ties among saturated leads fall back to
  // seq, which is still FIFO.
  static constexpr std::uint32_t kMaxLead = 0xffffffffu;
  // A chain end's seq carries its link count above this bit, so chain ends
  // sharing a lead sort by links, then by schedule order.
  static constexpr unsigned kLinksShift = 53;
  // A follow key's seq sets this bit, above every ordinary seq and clear of
  // the link bits. A chain end never shares a lead with a follow key in the
  // stack (its lead is one slot, a signal end's an airtime).
  static constexpr unsigned kFollowShift = 63;
  static constexpr std::uint64_t kFollowBit = std::uint64_t{1} << kFollowShift;

  // Heap entries carry the full sort key so sifting never dereferences the
  // pool; `slot` points at the callback and bookkeeping. `lead` fills what
  // would otherwise be padding.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t lead;
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entries must stay 24 bytes");

  struct SlotMeta {
    std::uint32_t gen = 1;
    std::uint32_t heap_pos = kNotInHeap;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  // A key after every key at `t`: what "now running" means between runs.
  static Key after_all(SimTime t) { return last_at(t, SimTime::zero()); }

  // A lead of `ahead`, saturated.
  static std::uint32_t lead_of(SimTime ahead) {
    const std::int64_t ns = ahead.ns();
    return ns < kMaxLead ? static_cast<std::uint32_t>(ns) : kMaxLead;
  }

  Key key_at(SimTime t) { return {t, next_seq_++, lead_of(t - now_)}; }

  template <typename F>
  EventId push(SimTime t, std::uint32_t lead, std::uint64_t seq, F&& cb) {
    MUZHA_ASSERT(t >= now_, "cannot schedule an event in the past");
    const std::uint32_t slot = alloc_slot();
    EventCallback& dst = slot_cb(slot);
    dst = std::forward<F>(cb);
    MUZHA_ASSERT(dst, "event callback must be callable");
    const HeapEntry e{t, seq, slot, lead};
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), e);
    return make_id(slot, meta_[slot].gen);
  }

  EventCallback& slot_cb(std::uint32_t slot) {
    return *std::launder(reinterpret_cast<EventCallback*>(
        chunks_[slot >> kChunkShift].get() +
        sizeof(EventCallback) * (slot & (kChunkSlots - 1))));
  }

  void place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    meta_[e.slot].heap_pos = pos;
  }

  // Hole-style sifts: `e` is the moving entry, written once at its final
  // position. 4-ary layout: children of i are 4i+1..4i+4, parent is
  // (i-1)/4.
  void sift_up(std::uint32_t pos, const HeapEntry& e) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, e);
  }

  void sift_down(std::uint32_t pos, const HeapEntry& e) {
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= n) break;
      std::uint32_t best = first_child;
      const std::uint32_t last_child =
          first_child + 3 < n - 1 ? first_child + 3 : n - 1;
      for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], e)) break;
      place(pos, heap_[best]);
      pos = best;
    }
    place(pos, e);
  }

  std::uint32_t alloc_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return grow_pool();
  }
  std::uint32_t grow_pool();  // cold path: appends a slot (maybe a chunk)

  void release_slot(std::uint32_t slot) {
    SlotMeta& m = meta_[slot];
    m.heap_pos = kNotInHeap;
    // Bump the generation so outstanding handles to this slot go stale;
    // generation 0 is skipped so a live id is never kInvalidEventId.
    if (++m.gen == 0) m.gen = 1;
    free_.push_back(slot);
  }

  void remove_from_heap(std::uint32_t slot) {
    const std::uint32_t pos = meta_[slot].heap_pos;
    const HeapEntry filler = heap_.back();
    heap_.pop_back();
    if (filler.slot != slot) {
      // The hole filler may need to move either way relative to `pos`.
      sift_down(pos, filler);
      if (meta_[filler.slot].heap_pos == pos) sift_up(pos, filler);
    }
  }

  SimTime now_;
  Key running_ = after_all(SimTime::zero());  // key of the event now running
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<SlotMeta> meta_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  // raw slot storage
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<HeapEntry> heap_;      // 4-ary min-heap
};

}  // namespace muzha
