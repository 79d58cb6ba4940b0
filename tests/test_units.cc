// Positive-side tests for the strong quantity types in sim/units.h:
// operator algebra, cross-dimension conversions, the checked
// Seconds <-> SimTime bridge, and the Probability range DCHECK. The
// negative side (expressions that must NOT compile) lives in
// tests/compile_fail/.
#include <gtest/gtest.h>

#include <type_traits>

#include "sim/units.h"

namespace muzha {
namespace {

// ---------------------------------------------------------------------------
// Static pins: zero-overhead claims, checked at compile time so a future
// edit that adds a vtable, a second member, or a non-trivial ctor fails here.
// ---------------------------------------------------------------------------

static_assert(sizeof(Meters) == sizeof(double));
static_assert(sizeof(Bytes) == sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<Segments>);
static_assert(std::is_trivially_destructible_v<BitsPerSecond>);
static_assert(!std::is_convertible_v<double, Meters>);    // explicit ctor
static_assert(!std::is_convertible_v<double, Segments>);
static_assert(!std::is_convertible_v<Meters, double>);    // no implicit out
static_assert(std::is_same_v<Meters::rep, double>);
static_assert(std::is_same_v<Bytes::rep, std::int64_t>);

// Quantity algebra is constexpr end to end.
static_assert(Meters(250.0).value() == 250.0);
static_assert(BitsPerSecond(2e6).value() == 2e6);
static_assert(Bytes(1500).value() == 1500);
static_assert((Seconds(1.0) + Seconds(0.5)).value() == 1.5);
static_assert((Meters(3.0) / Seconds(1.5)).value() == 2.0);  // -> m/s
static_assert((MetersPerSecond(10.0) * Seconds(2.0)).value() == 20.0);
static_assert(to_bits(Bytes(100)).value() == 800);
static_assert((Segments(4.0) / Seconds(2.0)).value() == 2.0);  // -> seg/s
static_assert(Meters(2.0) / Meters(1.0) == 2.0);  // ratio is dimensionless
static_assert(Meters(500.0) > Meters(250.0));
static_assert(-Meters(3.0) == Meters(-3.0));

TEST(Units, SameDimensionArithmetic) {
  Meters d(100.0);
  d += Meters(50.0);
  d -= Meters(25.0);
  d *= 2.0;
  d /= 5.0;
  EXPECT_DOUBLE_EQ(d.value(), 50.0);
  EXPECT_EQ(3 * Meters(10.0), Meters(30.0));
  EXPECT_EQ(Meters(10.0) * 3, Meters(30.0));
}

TEST(Units, CrossDimensionConversions) {
  // Propagation delay: 250 m at c.
  Seconds prop = Meters(250.0) / MetersPerSecond(3.0e8);
  EXPECT_DOUBLE_EQ(prop.value(), 250.0 / 3.0e8);
  // Serialization delay: 1500 B at 2 Mbps = 6 ms.
  Seconds ser = to_bits(Bytes(1500)) / BitsPerSecond(2e6);
  EXPECT_DOUBLE_EQ(ser.value(), 0.006);
  // Window growth: 5 segments/s over 2 s.
  EXPECT_DOUBLE_EQ((SegmentsPerSecond(5.0) * Seconds(2.0)).value(), 10.0);
  EXPECT_DOUBLE_EQ((Seconds(2.0) * SegmentsPerSecond(5.0)).value(), 10.0);
}

// ---------------------------------------------------------------------------
// Seconds <-> SimTime: the bridge between the floating model currency and
// the integer-ns event clock must round-trip exactly at ns boundaries and
// round half-away-from-zero off them (matching SimTime::from_seconds).
// ---------------------------------------------------------------------------

TEST(Units, SimTimeRoundTripAtNsBoundaries) {
  EXPECT_EQ(to_sim_time(Seconds(0.0)), SimTime::zero());
  EXPECT_EQ(to_sim_time(Seconds(1.0)), SimTime::from_seconds(1.0));
  EXPECT_EQ(to_sim_time(Seconds(0.000000001)), SimTime::from_ns(1));
  EXPECT_EQ(to_sim_time(Seconds(-1e-9)), SimTime::from_ns(-1));
  // A SimTime representable in double converts back to the same tick count.
  for (std::int64_t ns : {0L, 1L, 999L, 1'000'000L, 1'234'567'890L}) {
    SimTime t = SimTime::from_ns(ns);
    EXPECT_EQ(to_sim_time(to_seconds(t)), t) << ns << " ns";
  }
}

TEST(Units, SimTimeRoundsLikeFromSeconds) {
  // Sub-ns values round to the nearest tick, identically to the SimTime
  // factory the rest of the simulator uses.
  EXPECT_EQ(to_sim_time(Seconds(1.4e-9)), SimTime::from_seconds(1.4e-9));
  EXPECT_EQ(to_sim_time(Seconds(1.6e-9)), SimTime::from_seconds(1.6e-9));
  EXPECT_EQ(to_sim_time(Seconds(-1.6e-9)), SimTime::from_seconds(-1.6e-9));
}

TEST(Units, ProbabilityAcceptsUnitInterval) {
  EXPECT_DOUBLE_EQ(Probability(0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability(0.5).value(), 0.5);
  EXPECT_DOUBLE_EQ(Probability(1.0).value(), 1.0);
  EXPECT_LT(Probability(0.1), Probability(0.2));
}

#if MUZHA_DCHECK_ENABLED
TEST(UnitsDeath, ProbabilityRejectsOutOfRange) {
  EXPECT_DEATH(Probability(1.5), "probability");
  EXPECT_DEATH(Probability(-0.1), "probability");
}

TEST(UnitsDeath, SimTimeConversionRejectsOverflowAndNan) {
  EXPECT_DEATH(to_sim_time(Seconds(1e10)), "overflow");
  EXPECT_DEATH(to_sim_time(Seconds(std::nan(""))), "non-finite");
}
#endif

TEST(Units, DefaultConstructionIsZero) {
  EXPECT_DOUBLE_EQ(Meters().value(), 0.0);
  EXPECT_EQ(Bytes().value(), 0);
  EXPECT_DOUBLE_EQ(Probability().value(), 0.0);
}

}  // namespace
}  // namespace muzha
