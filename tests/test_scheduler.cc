#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace muzha {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ms(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_ms(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_ms(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_ms(30));
}

TEST(Scheduler, SimultaneousEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::from_ms(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelativeToNow) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(SimTime::from_ms(10), [&] {
    s.schedule_in(SimTime::from_ms(5), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, SimTime::from_ms(15));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  EventId id = s.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  s.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelInvalidOrFiredIdIsNoOp) {
  Scheduler s;
  int fired = 0;
  EventId id = s.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  s.run();
  s.cancel(id);              // already fired
  s.cancel(kInvalidEventId);  // invalid
  s.cancel(9999);             // never issued
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ms(10), [&] { ++fired; });
  s.schedule_at(SimTime::from_ms(20), [&] { ++fired; });
  s.schedule_at(SimTime::from_ms(30), [&] { ++fired; });
  s.run_until(SimTime::from_ms(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::from_ms(20));
  s.run_until(SimTime::from_ms(40));
  EXPECT_EQ(fired, 3);
  // Clock advances to the requested horizon even after the queue drains.
  EXPECT_EQ(s.now(), SimTime::from_ms(40));
}

TEST(Scheduler, EventsScheduledDuringCallbackRun) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ms(1), [&] {
    order.push_back(1);
    s.schedule_in(SimTime::zero(), [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, StepExecutesExactlyOneEvent) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  s.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingEventsAccountsForCancellations) {
  Scheduler s;
  EventId a = s.schedule_at(SimTime::from_ms(1), [] {});
  s.schedule_at(SimTime::from_ms(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_events(), 1u);
}

// Regression: the pre-rewrite scheduler tracked cancellations in a side set
// and computed pending_events() as heap size minus set size. Cancelling an
// id that had already fired leaked a set entry and underflowed the size_t
// subtraction. Pin the count across every schedule -> fire -> cancel order.
TEST(Scheduler, PendingEventsStableWhenCancellingFiredIds) {
  Scheduler s;
  EventId a = s.schedule_at(SimTime::from_ms(1), [] {});
  EventId b = s.schedule_at(SimTime::from_ms(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_TRUE(s.step());  // fires a
  EXPECT_EQ(s.pending_events(), 1u);
  s.cancel(a);  // already fired: must not underflow or shadow-count
  EXPECT_EQ(s.pending_events(), 1u);
  s.cancel(a);  // repeated stale cancel is still a no-op
  EXPECT_EQ(s.pending_events(), 1u);
  s.cancel(b);
  EXPECT_EQ(s.pending_events(), 0u);
  s.cancel(b);  // cancel after cancel
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.step());
}

// Many fire-then-cancel cycles must not accumulate hidden state: pending
// stays exact and the queue still drains (the old cancelled_ set grew
// monotonically here).
TEST(Scheduler, RepeatedStaleCancelsDoNotAccumulate) {
  Scheduler s;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    EventId id = s.schedule_in(SimTime::from_us(1), [] {});
    EXPECT_EQ(s.pending_events(), 1u);
    s.run();
    s.cancel(id);
    EXPECT_EQ(s.pending_events(), 0u);
  }
  EXPECT_EQ(s.events_executed(), 1000u);
}

// A slot is recycled after cancel/fire; the stale handle carries the old
// generation and must not touch the slot's next tenant.
TEST(Scheduler, StaleHandleDoesNotCancelRecycledSlot) {
  Scheduler s;
  int fired = 0;
  EventId a = s.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  s.cancel(a);
  EventId b = s.schedule_at(SimTime::from_ms(1), [&] { ++fired; });
  s.cancel(a);  // stale: same slot, older generation
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(a, b);
}

TEST(Scheduler, CancelFromInsideAnotherCallback) {
  Scheduler s;
  int fired = 0;
  EventId victim = s.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  s.schedule_at(SimTime::from_ms(1), [&] { s.cancel(victim); });
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, CancellingOwnIdFromItsCallbackIsNoOp) {
  Scheduler s;
  int fired = 0;
  EventId self = kInvalidEventId;
  self = s.schedule_at(SimTime::from_ms(1), [&] {
    ++fired;
    s.cancel(self);  // our id is stale by the time we run
  });
  s.schedule_at(SimTime::from_ms(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, MoveOnlyCapturesAreAccepted) {
  Scheduler s;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  s.schedule_at(SimTime::from_ms(1),
                [p = std::move(payload), &seen] { seen = *p + 1; });
  s.run();
  EXPECT_EQ(seen, 42);
}

// Destroying a scheduler with events still queued must release their
// callbacks (the unique_ptr captures here leak under ASan otherwise).
TEST(Scheduler, DestructorReleasesPendingCallbacks) {
  auto flag = std::make_shared<int>(0);
  {
    Scheduler s;
    s.schedule_at(SimTime::from_ms(1), [p = std::make_unique<int>(7)] {});
    s.schedule_at(SimTime::from_ms(2), [flag] {});
    EXPECT_EQ(flag.use_count(), 2);
  }
  EXPECT_EQ(flag.use_count(), 1);
}

TEST(Scheduler, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_at(SimTime::from_ms(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

// Two chain ends at t=80 ns: A (4 links of 20 ns, started at 0) and B (2
// links, started at 40). Real chains of per-link events would fire their
// last links after anything scheduled more than a step ahead, before
// anything scheduled less than a step ahead, and B before A: B's chain
// started later, so at every shared instant its link was scheduled first.
// An ordinary event scheduled exactly a step ahead is the documented limit:
// it fires before both chain ends.
TEST(Scheduler, ChainEndsFireWhereTheirLastLinksWould) {
  Scheduler s;
  std::vector<char> order;
  const SimTime step = SimTime::from_ns(20);
  const SimTime end = SimTime::from_ns(80);
  s.schedule_at(SimTime::zero(), [&] {
    s.schedule_chain_end(end, step, 4, [&] { order.push_back('A'); });
  });
  s.schedule_at(SimTime::from_ns(40), [&] {
    s.schedule_chain_end(end, step, 2, [&] { order.push_back('B'); });
  });
  s.schedule_at(end, [&] { order.push_back('e'); });  // 80 ns ahead
  s.schedule_at(end - step, [&] {
    s.schedule_at(end, [&] { order.push_back('s'); });  // exactly a step
  });
  s.schedule_at(SimTime::from_ns(70), [&] {
    s.schedule_at(end, [&] { order.push_back('l'); });  // 10 ns ahead
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'e', 's', 'B', 'A', 'l'}));
}

TEST(SchedulerDeath, SchedulingInThePastAborts) {
  Scheduler s;
  s.schedule_at(SimTime::from_ms(10), [] {});
  s.run();
  EXPECT_DEATH(s.schedule_at(SimTime::from_ms(5), [] {}), "past");
}

}  // namespace
}  // namespace muzha
