// Allocation accounting for the event core: once the pool is warm,
// schedule/fire/cancel of a callback must not touch the heap at all (every
// callback is stored inline; a larger one does not compile). Verified with a
// counting global operator new.
//
// Sanitizer builds replace the allocator and may allocate internally, so
// the counting tests skip themselves there; the plain tier-1 build
// exercises them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "sim/inline_callback.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace {
std::size_t g_allocations = 0;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#define MUZHA_SKIP_IF_SANITIZED() \
  if (kSanitized) GTEST_SKIP() << "allocator replaced by sanitizer"
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace muzha {
namespace {

// Capture shapes representative of the stack's hot callbacks.
struct FourPointers {
  void* a;
  void* b;
  void* c;
  void* d;
};
static_assert(EventCallback::stored_inline<FourPointers>());

TEST(SchedulerAlloc, CountingAllocatorSeesAllocations) {
  MUZHA_SKIP_IF_SANITIZED();
  const std::size_t before = g_allocations;
  std::unique_ptr<int> p = std::make_unique<int>(1);
  EXPECT_GT(g_allocations, before);
}

TEST(SchedulerAlloc, InlineBudgetHoldsTypicalCaptures) {
  // A `this` pointer plus a handful of scalars — the common protocol-timer
  // shape — and a full PacketPtr-sized capture both stay inline.
  static_assert(kInlineCallbackSize >= 48);
  static_assert(EventCallback::stored_inline<decltype([] {})>());
  struct SixWords {
    std::uint64_t w[6];
  };
  static_assert(EventCallback::stored_inline<SixWords>());
  struct SevenWords {
    std::uint64_t w[7];
  };
  static_assert(!EventCallback::stored_inline<SevenWords>());
}

TEST(SchedulerAlloc, WarmSchedulerScheduleFireIsAllocationFree) {
  MUZHA_SKIP_IF_SANITIZED();
  Scheduler s;
  long sum = 0;

  // One warm-up pass grows meta_, heap_, free_ and the chunk pool to 64
  // events and constructs their slots; later passes of that size grow
  // nothing.
  for (int i = 0; i < 64; ++i) {
    s.schedule_in(SimTime::from_us(i), [&sum, i] { sum += i; });
  }
  s.run();

  const std::size_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 64; ++i) {
      s.schedule_in(SimTime::from_us(i), [&sum, i] { sum += i; });
    }
    s.run();
  }
  EXPECT_EQ(g_allocations, before) << "schedule/fire of inline callbacks "
                                      "must not allocate on a warm scheduler";
  EXPECT_EQ(sum, (63 * 64 / 2) * 11);
}

TEST(SchedulerAlloc, CancelIsAllocationFree) {
  MUZHA_SKIP_IF_SANITIZED();
  Scheduler s;
  EventId ids[64];
  for (int i = 0; i < 64; ++i) {
    ids[i] = s.schedule_in(SimTime::from_us(i + 1), [] {});
  }
  s.run();  // warm: every slot constructed, free list at capacity

  const std::size_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 64; ++i) {
      ids[i] = s.schedule_in(SimTime::from_us(i + 1), [] {});
    }
    for (int i = 0; i < 64; ++i) s.cancel(ids[i]);
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(SchedulerAlloc, TimerRestartChurnIsAllocationFree) {
  MUZHA_SKIP_IF_SANITIZED();
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&fired] { ++fired; });
  timer.schedule_in(SimTime::from_us(10));
  sim.run();  // warm
  ASSERT_EQ(fired, 1);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    timer.schedule_in(SimTime::from_us(10));  // cancel + rearm each round
  }
  sim.run();
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace muzha
