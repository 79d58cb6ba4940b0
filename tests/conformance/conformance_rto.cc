// Golden RTO-backoff conformance: the full exponential series is pinned both
// at the estimator level and end-to-end through the step DSL — doubling per
// timeout, saturation at kMaxRto, and the reset to the estimate on forward
// progress (a new cumulative ACK).
#include <gtest/gtest.h>

#include "tcp/rto_estimator.h"
#include "tcp/tcp_variants.h"
#include "tests/harness/step_harness.h"

namespace muzha {
namespace {

using namespace harness;

TEST(RtoGolden, EstimatorBackoffLadderAndReset) {
  RtoEstimator est;
  EXPECT_EQ(est.rto(), SimTime::from_seconds(3.0));  // initial RTO
  EXPECT_EQ(est.backoff_exponent(), 0);

  est.sample(SimTime::from_ms(100));  // srtt 100ms, rttvar 50ms
  EXPECT_EQ(est.srtt(), SimTime::from_ms(100));
  EXPECT_EQ(est.rto(), SimTime::from_ms(300));

  est.backoff();
  EXPECT_EQ(est.rto(), SimTime::from_ms(600));
  EXPECT_EQ(est.backoff_exponent(), 1);
  est.backoff();
  EXPECT_EQ(est.rto(), SimTime::from_ms(1200));
  EXPECT_EQ(est.backoff_exponent(), 2);
  est.backoff();
  EXPECT_EQ(est.rto(), SimTime::from_ms(2400));
  EXPECT_EQ(est.backoff_exponent(), 3);

  est.reset_backoff();  // forward progress: back to srtt + 4 * rttvar
  EXPECT_EQ(est.rto(), SimTime::from_ms(300));
  EXPECT_EQ(est.backoff_exponent(), 0);
}

TEST(RtoGolden, EstimatorSaturatesAtMaxRtoWhileExponentKeepsCounting) {
  RtoEstimator est;
  est.sample(SimTime::from_ms(100));  // 300ms
  for (int k = 1; k <= 7; ++k) est.backoff();
  EXPECT_EQ(est.rto(), SimTime::from_ms(38400));  // 300ms * 2^7
  est.backoff();  // 76.8s -> capped at 60s
  EXPECT_EQ(est.rto(), kMaxRto);
  EXPECT_EQ(est.rto(), SimTime::from_seconds(60.0));
  EXPECT_EQ(est.backoff_exponent(), 8);
  est.backoff();  // stays capped
  EXPECT_EQ(est.rto(), SimTime::from_seconds(60.0));
  EXPECT_EQ(est.backoff_exponent(), 9);
  est.reset_backoff();
  EXPECT_EQ(est.rto(), SimTime::from_ms(300));
}

TEST(RtoGolden, EstimatorResetWithoutSampleRestoresInitialRto) {
  RtoEstimator est;
  est.backoff();
  EXPECT_EQ(est.rto(), SimTime::from_seconds(6.0));
  est.reset_backoff();
  EXPECT_EQ(est.rto(), SimTime::from_seconds(3.0));
  // At exponent zero the reset is a no-op (never clobbers a fresh estimate).
  est.reset_backoff();
  EXPECT_EQ(est.rto(), SimTime::from_seconds(3.0));
}

TEST(RtoGolden, AgentBackoffLadderPinnedThroughStepDsl) {
  StepHarness<TcpTahoe> h;
  h << Push{} << ExpectSegment{.seq = 0}             // seg 0 in flight
    << Tick{Seconds(1.0)}                            //
    << InjectAck{.seq = 0, .rtt = Seconds(0.1)}      // RTT sample: 100ms
    << ExpectSrtt{Seconds(0.1)} << ExpectRto{Seconds(0.3)}
    << ExpectRtoBackoff{0}                           //
    << ExpectSegment{.seq = 1} << ExpectSegment{.seq = 2}  // timer at t=1.3
    << Tick{Seconds(0.35)}                           // 1st timeout (t=1.3)
    << ExpectRtoBackoff{1} << ExpectRto{Seconds(0.6)}
    << ExpectSegment{.seq = 1, .is_retx = true} << ExpectNoSegment{}
    << Tick{Seconds(0.6)}                            // 2nd timeout (t=1.9)
    << ExpectRtoBackoff{2} << ExpectRto{Seconds(1.2)}
    << ExpectSegment{.seq = 1, .is_retx = true}      //
    << Tick{Seconds(1.2)}                            // 3rd timeout (t=3.1)
    << ExpectRtoBackoff{3} << ExpectRto{Seconds(2.4)}
    << ExpectSegment{.seq = 1, .is_retx = true}
    // Forward progress ends the series: the RTO drops straight back to the
    // estimate, not to half the backed-off value.
    << InjectAck{.seq = 2}                           //
    << ExpectRtoBackoff{0} << ExpectRto{Seconds(0.3)};
}

TEST(RtoGolden, AgentRtoSaturatesAtConfiguredCap) {
  StepHarness<TcpTahoe> h;
  h << Push{} << Tick{Seconds(1.0)}                  //
    << InjectAck{.seq = 0, .rtt = Seconds(0.1)}      //
    << ExpectRto{Seconds(0.3)} << DrainSegments{}    // timer at t=1.3
    << Tick{Seconds(0.35)}                           // t=1.35, timeout 1.3
    << ExpectRtoBackoff{1} << ExpectRto{Seconds(0.6)};
  // Each later tick is the current RTO, so it lands 50 ms after the next
  // timeout: 1.9, 3.1, 5.5, 10.3, 19.9 and 39.1 s.
  for (int k = 2; k <= 7; ++k) {
    const double rto = 0.3 * (1 << (k - 1));
    h << Tick{Seconds(rto)} << ExpectRtoBackoff{k}
      << ExpectRto{Seconds(2 * rto)};
  }
  h << Tick{Seconds(38.4)}                           // t=77.55, timeout 77.5
    << ExpectRtoBackoff{8} << ExpectRto{Seconds(60.0)}  // 76.8s capped
    << Tick{Seconds(60.0)}                           // t=137.55
    << ExpectRtoBackoff{9} << ExpectRto{Seconds(60.0)}  // stays capped
    << DrainSegments{}                               //
    << InjectAck{.seq = 1}                           //
    << ExpectRtoBackoff{0} << ExpectRto{Seconds(0.3)};
}

TEST(RtoGolden, KarnRuleSkipsRetransmittedSegmentsButStillResetsBackoff) {
  StepHarness<TcpTahoe> h;
  h << Push{} << Tick{Seconds(1.0)}                  //
    << InjectAck{.seq = 0, .rtt = Seconds(0.1)}      //
    << ExpectSrtt{Seconds(0.1)} << DrainSegments{}   //
    << Tick{Seconds(0.35)}                           // timeout: seg 1 retx
    << ExpectRtoBackoff{1}
    // The ACK for the retransmitted segment must not be sampled (ambiguous
    // RTT), but it is forward progress, so the backoff series still ends.
    << InjectAck{.seq = 1, .rtt = Seconds(0.5)}      //
    << ExpectSrtt{Seconds(0.1)}                      // unchanged
    << ExpectRtoBackoff{0} << ExpectRto{Seconds(0.3)};
}

}  // namespace
}  // namespace muzha
