#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace muzha {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Timer, FiresAtExpiry) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule_in(SimTime::from_ms(5));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.expiry(), SimTime::from_ms(5));
  sim.run_until(SimTime::from_ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  Timer t(sim, [&] { ++fired; });
  t.schedule_in(SimTime::from_ms(5));
  t.cancel();
  sim.run_until(SimTime::from_ms(10));
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RescheduleReplacesPrevious) {
  Simulator sim;
  std::vector<double> fire_times;
  Timer t(sim, [&] { fire_times.push_back(sim.now().to_seconds()); });
  t.schedule_in(SimTime::from_ms(5));
  t.schedule_in(SimTime::from_ms(20));  // replaces the 5 ms deadline
  sim.run_until(SimTime::from_ms(50));
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 0.020);
}

TEST(Timer, CanRescheduleFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer* self = nullptr;
  Timer t(sim, [&] {
    if (++fired < 3) self->schedule_in(SimTime::from_ms(1));
  });
  self = &t;
  t.schedule_in(SimTime::from_ms(1));
  sim.run_until(SimTime::from_ms(100));
  EXPECT_EQ(fired, 3);
}

TEST(Timer, DestructorCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim, [&] { ++fired; });
    t.schedule_in(SimTime::from_ms(1));
  }
  sim.run_until(SimTime::from_ms(10));
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace muzha
