#include "tcp/rto_estimator.h"

#include <gtest/gtest.h>

namespace muzha {
namespace {

TEST(RtoEstimator, StartsAtInitialRto) {
  RtoEstimator e;
  EXPECT_EQ(e.rto(), SimTime::from_seconds(3.0));
  EXPECT_FALSE(e.has_sample());
}

TEST(RtoEstimator, FirstSampleInitializesSrttAndVar) {
  RtoEstimator e;
  e.sample(SimTime::from_ms(100));
  EXPECT_TRUE(e.has_sample());
  EXPECT_EQ(e.srtt(), SimTime::from_ms(100));
  EXPECT_EQ(e.rttvar(), SimTime::from_ms(50));
  // RTO = srtt + 4*rttvar = 300 ms.
  EXPECT_EQ(e.rto(), SimTime::from_ms(300));
}

TEST(RtoEstimator, ConvergesTowardStableRtt) {
  RtoEstimator e;
  for (int i = 0; i < 100; ++i) e.sample(SimTime::from_ms(80));
  EXPECT_NEAR(e.srtt().to_seconds(), 0.080, 0.001);
  // Variance decays toward zero; RTO clamps at the floor.
  EXPECT_EQ(e.rto(), SimTime::from_ms(200));
}

TEST(RtoEstimator, SpikesInflateRto) {
  RtoEstimator e;
  for (int i = 0; i < 20; ++i) e.sample(SimTime::from_ms(50));
  SimTime before = e.rto();
  e.sample(SimTime::from_ms(500));
  EXPECT_GT(e.rto(), before);
}

TEST(RtoEstimator, BackoffDoublesAndClampsAtMax) {
  RtoEstimator e;
  EXPECT_EQ(e.rto(), kInitialRto);
  EXPECT_EQ(e.rto(), SimTime::from_seconds(3.0));
  for (double s : {6.0, 12.0, 24.0, 48.0}) {
    e.backoff();
    EXPECT_EQ(e.rto(), SimTime::from_seconds(s));
  }
  e.backoff();  // 96 s
  EXPECT_EQ(e.rto(), kMaxRto);
  EXPECT_EQ(e.rto(), SimTime::from_seconds(60.0));  // clamped
  e.backoff();
  EXPECT_EQ(e.rto(), SimTime::from_seconds(60.0));
}

TEST(RtoEstimator, MinRtoFloorRespected) {
  RtoEstimator e;
  for (int i = 0; i < 50; ++i) e.sample(SimTime::from_ms(10));
  EXPECT_EQ(e.rto(), kMinRto);
  EXPECT_EQ(e.rto(), SimTime::from_ms(200));
}

TEST(RtoEstimator, BackoffExponentCountsConsecutiveTimeouts) {
  RtoEstimator e;
  EXPECT_EQ(e.backoff_exponent(), 0);
  e.backoff();
  e.backoff();
  EXPECT_EQ(e.backoff_exponent(), 2);
  // A fresh sample ends the series and recomputes the RTO from it.
  e.sample(SimTime::from_ms(100));
  EXPECT_EQ(e.backoff_exponent(), 0);
  EXPECT_EQ(e.rto(), SimTime::from_ms(300));
}

TEST(RtoEstimator, ResetBackoffRestoresEstimate) {
  RtoEstimator e;
  e.sample(SimTime::from_ms(100));  // rto 300 ms
  e.backoff();
  e.backoff();
  EXPECT_EQ(e.rto(), SimTime::from_ms(1200));
  e.reset_backoff();
  EXPECT_EQ(e.rto(), SimTime::from_ms(300));
  EXPECT_EQ(e.backoff_exponent(), 0);
}

TEST(RtoEstimator, ResetBackoffWithoutSampleRestoresInitialRto) {
  RtoEstimator e;
  e.backoff();
  EXPECT_EQ(e.rto(), SimTime::from_seconds(6.0));
  e.reset_backoff();
  EXPECT_EQ(e.rto(), SimTime::from_seconds(3.0));
}

TEST(RtoEstimator, ResetBackoffIsNoOpOutsideASeries) {
  RtoEstimator e;
  e.sample(SimTime::from_ms(100));
  e.sample(SimTime::from_ms(200));
  SimTime before = e.rto();
  e.reset_backoff();  // exponent 0: must not clobber the fresh estimate
  EXPECT_EQ(e.rto(), before);
}

TEST(RtoEstimator, EwmaWeightsMatchRfc6298) {
  RtoEstimator e;
  e.sample(SimTime::from_ms(100));
  e.sample(SimTime::from_ms(200));
  // srtt = 0.875*100 + 0.125*200 = 112.5 ms
  EXPECT_NEAR(e.srtt().to_seconds(), 0.1125, 1e-6);
  // rttvar = 0.75*50 + 0.25*|200-100| = 62.5 ms
  EXPECT_NEAR(e.rttvar().to_seconds(), 0.0625, 1e-6);
}

}  // namespace
}  // namespace muzha
