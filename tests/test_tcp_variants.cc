// Base TCP sender machinery and the four baseline variants, expressed as
// expect/inject step scripts (tests/harness). Cycle-exact per-variant
// conformance suites live in tests/conformance; this file covers base-class
// behaviour (windowing, RTO, Karn, listeners) plus one script per variant.
#include "tcp/tcp_variants.h"

#include <gtest/gtest.h>

#include <vector>

#include "tcp/tcp_vegas.h"
#include "tests/harness/step_harness.h"

namespace muzha {
namespace {

using namespace harness;

template <class H>
void ack_each(H& h, std::int64_t upto) {
  for (std::int64_t s = 0; s <= upto; ++s) h << InjectAck{.seq = s};
}

// ---------------------------------------------------------------------------
// Base sender machinery (exercised through TcpNewReno)
// ---------------------------------------------------------------------------

TEST(TcpBase, StartSendsInitialWindow) {
  StepHarness<TcpNewReno> h;
  h << Push{}                                     // initial cwnd 1
    << ExpectSegment{.seq = 0, .is_retx = false}  //
    << ExpectNoSegment{}                          //
    << ExpectNextSeq{1};
  EXPECT_EQ(h.agent().packets_sent(), 1u);
}

TEST(TcpBase, WindowCapRespected) {
  TcpConfig cfg;
  cfg.window = 4;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{};
  ack_each(h, 20);  // grow cwnd well past the cap
  h << ExpectNextSeq{25};  // never more than window_ = 4 outstanding
  EXPECT_GT(h.agent().cwnd().value(), 4.0);
  EXPECT_LE(h.agent().next_seq() - 1 - h.agent().highest_ack(), 4);
}

TEST(TcpBase, CumulativeAckAdvancesPastHoles) {
  TcpConfig cfg;
  cfg.window = 16;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{};
  ack_each(h, 3);
  // A single ACK can acknowledge several segments at once.
  h << InjectAck{.seq = 6} << ExpectHighestAck{6};
}

TEST(TcpBase, RetransmissionTimeoutCollapsesWindow) {
  TcpConfig cfg;
  cfg.window = 16;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{};
  ack_each(h, 7);  // cwnd 9, segments 8..16 outstanding
  h << ExpectCwnd{9.0} << DrainSegments{}
    // No more ACKs: the RTO (initial 3 s) fires.
    << Tick{Seconds(4.0)}                        //
    << ExpectRtoBackoff{1}                       //
    << ExpectCwnd{1.0}                           //
    << ExpectSegment{.seq = 8, .is_retx = true}  // go-back-N resend
    << ExpectNoSegment{};
  EXPECT_EQ(h.agent().timeouts(), 1u);
}

TEST(TcpBase, RttSampleFeedsEstimator) {
  StepHarness<TcpNewReno> h;
  h << Push{} << Tick{Seconds(0.05)}             //
    << InjectAck{.seq = 0, .rtt = Seconds(0.04)} //
    << ExpectRtoHasSample{true}                  //
    << ExpectSrtt{Seconds(0.04)};
}

TEST(TcpBase, KarnRuleSkipsRetransmittedSegments) {
  TcpConfig cfg;
  cfg.window = 8;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{}                                     //
    << Tick{Seconds(4.0)}                         // timeout: segment 0 retx
    << DrainSegments{}
    // The ACK for a retransmitted segment is ambiguous: never sampled.
    << InjectAck{.seq = 0, .rtt = Seconds(0.04)}  //
    << ExpectRtoHasSample{false};
  ASSERT_GE(h.agent().retransmissions(), 1u);
}

TEST(TcpBase, CwndListenerFiresOnChange) {
  StepHarness<TcpNewReno> h;
  std::vector<double> values;
  h.agent().set_cwnd_listener(
      [&](SimTime, double v) { values.push_back(v); });
  h << Push{};
  ack_each(h, 3);
  ASSERT_GE(values.size(), 3u);
  EXPECT_LT(values.front(), values.back());
}

// ---------------------------------------------------------------------------
// Slow start / congestion avoidance (Reno-family growth)
// ---------------------------------------------------------------------------

TEST(TcpGrowth, SlowStartAddsOneSegmentPerAck) {
  TcpConfig cfg;
  cfg.window = 64;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{};
  ack_each(h, 6);  // +1 per ACK: cwnd = 1 + 7
  h << ExpectCwnd{8.0} << ExpectState{TcpPhase::kSlowStart};
}

TEST(TcpGrowth, CongestionAvoidanceIsLinear) {
  TcpConfig cfg;
  cfg.window = 64;
  StepHarness<TcpNewReno> h(cfg);
  h << Push{};
  ack_each(h, 6);  // cwnd 8
  h << DrainSegments{}
    // Cross a timeout: ssthresh = cwnd/2 = 4, cwnd restarts at 1.
    << Tick{Seconds(4.0)}                        //
    << ExpectCwnd{1.0} << ExpectSsthresh{4.0}    //
    << ExpectSegment{.seq = 7, .is_retx = true}  //
    << InjectAck{.seq = 7} << InjectAck{.seq = 8} << InjectAck{.seq = 9}
    << ExpectCwnd{4.0}                            // slow start up to ssthresh
    << ExpectState{TcpPhase::kCongestionAvoidance}
    << InjectAck{.seq = 10}                       //
    << ExpectCwnd{4.25};                          // then +1/cwnd per ACK
}

// ---------------------------------------------------------------------------
// Tahoe
// ---------------------------------------------------------------------------

TEST(TcpTahoeTest, TripleDupAckRestartsSlowStart) {
  StepHarness<TcpTahoe> h;
  h << Push{};
  ack_each(h, 9);  // cwnd 11
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) h << InjectAck{.seq = 9};
  h << ExpectSegment{.seq = 10, .is_retx = true}  //
    << ExpectCwnd{1.0}                            // no fast recovery
    << ExpectSsthresh{5.5}                        //
    << ExpectNoSegment{};
  EXPECT_EQ(h.agent().retransmissions(), 1u);
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

TEST(TcpRenoTest, FastRecoveryHalvesAndInflates) {
  StepHarness<TcpReno> h;
  h << Push{};
  ack_each(h, 9);  // cwnd 11
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) h << InjectAck{.seq = 9};
  h << ExpectState{TcpPhase::kFastRecovery}       //
    << ExpectSsthresh{5.5} << ExpectCwnd{8.5}     // ssthresh + 3
    << ExpectSegment{.seq = 10, .is_retx = true}  //
    << InjectAck{.seq = 9}                        // additional dups inflate
    << ExpectCwnd{9.5}
    // The recovery-exiting ACK deflates to ssthresh.
    << InjectAck{.seq = 20}                        //
    << ExpectState{TcpPhase::kCongestionAvoidance} //
    << ExpectCwnd{5.5};
}

TEST(TcpRenoTest, BelowThresholdDupAcksDoNothing) {
  StepHarness<TcpReno> h;
  h << Push{};
  ack_each(h, 9);
  h << ExpectCwnd{11.0} << DrainSegments{}           //
    << InjectAck{.seq = 9} << InjectAck{.seq = 9}    //
    << ExpectDupacks{2} << ExpectCwnd{11.0}          //
    << ExpectState{TcpPhase::kSlowStart}             // not in recovery
    << ExpectNoSegment{};
  EXPECT_EQ(h.agent().retransmissions(), 0u);
}

// ---------------------------------------------------------------------------
// NewReno
// ---------------------------------------------------------------------------

TEST(TcpNewRenoTest, PartialAckRetransmitsNextHoleWithoutExiting) {
  StepHarness<TcpNewReno> h;
  h << Push{};
  ack_each(h, 9);  // cwnd 11, recovery point will be 20
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) h << InjectAck{.seq = 9};
  h << ExpectSegment{.seq = 10, .is_retx = true}  //
    << InjectAck{.seq = 12}                       // partial: below 20
    << ExpectSegment{.seq = 13, .is_retx = true}  //
    << ExpectState{TcpPhase::kFastRecovery}
    // Full ACK ends recovery and deflates to ssthresh.
    << InjectAck{.seq = 20}                        //
    << ExpectState{TcpPhase::kCongestionAvoidance} //
    << ExpectCwnd{5.5} << ExpectSsthresh{5.5};
}

TEST(TcpNewRenoTest, MultipleLossesRecoverWithoutTimeout) {
  StepHarness<TcpNewReno> h;
  h << Push{};
  ack_each(h, 9);
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) h << InjectAck{.seq = 9};
  // Three consecutive partial ACKs (three holes), then the full ACK.
  h << ExpectSegment{.seq = 10, .is_retx = true}                          //
    << InjectAck{.seq = 11} << ExpectSegment{.seq = 12, .is_retx = true}  //
    << InjectAck{.seq = 13} << ExpectSegment{.seq = 14, .is_retx = true}  //
    << InjectAck{.seq = 15} << ExpectSegment{.seq = 16, .is_retx = true}  //
    << InjectAck{.seq = 20}                                               //
    << ExpectState{TcpPhase::kCongestionAvoidance};
  EXPECT_EQ(h.agent().timeouts(), 0u);
  EXPECT_GE(h.agent().retransmissions(), 4u);
}

// ---------------------------------------------------------------------------
// SACK
// ---------------------------------------------------------------------------

TEST(TcpSackTest, ScoreboardTracksSackedBlocks) {
  StepHarness<TcpSack> h;
  h << Push{};
  ack_each(h, 9);
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) {
    h << InjectAck{.seq = 9, .sack_blocks = {{12, 15}}};
  }
  h << ExpectState{TcpPhase::kFastRecovery}  //
    << ExpectSackScoreboard{3};              // 12, 13, 14
}

TEST(TcpSackTest, RetransmitsOnlyHoles) {
  StepHarness<TcpSack> h;
  h << Push{};
  ack_each(h, 9);  // cwnd 11; outstanding 10..20
  h << DrainSegments{};
  // Everything from 11..19 sacked: the holes are 10 and 20, nothing else.
  for (int i = 0; i < 3; ++i) {
    h << InjectAck{.seq = 9, .sack_blocks = {{11, 20}}};
  }
  h << ExpectSegment{.seq = 10, .is_retx = true}  //
    << ExpectSegment{.seq = 20, .is_retx = true}  //
    << ExpectNoSegment{}
    // Full ACK clears the scoreboard.
    << InjectAck{.seq = 20}                        //
    << ExpectSackScoreboard{0}                     //
    << ExpectState{TcpPhase::kCongestionAvoidance};
}

TEST(TcpSackTest, TimeoutClearsScoreboard) {
  StepHarness<TcpSack> h;
  h << Push{};
  ack_each(h, 9);
  h << DrainSegments{};
  for (int i = 0; i < 3; ++i) {
    h << InjectAck{.seq = 9, .sack_blocks = {{12, 18}}};
  }
  h << ExpectSackScoreboard{6}   //
    << Tick{Seconds(5.0)}        //
    << ExpectSackScoreboard{0}   //
    << ExpectCwnd{1.0};
  EXPECT_GE(h.agent().timeouts(), 1u);
}

// ---------------------------------------------------------------------------
// Vegas
// ---------------------------------------------------------------------------

TEST(TcpVegasTest, SlowStartDoublesEveryOtherRtt) {
  StepHarness<TcpVegas> h;
  h << Push{} << Tick{Seconds(0.5)}                            //
    << InjectAck{.seq = 0, .rtt = Seconds(0.05)}               //
    << ExpectCwnd{2.0}                                         // grow epoch
    << InjectAck{.seq = 1, .rtt = Seconds(0.05)}               //
    << InjectAck{.seq = 2, .rtt = Seconds(0.05)}               //
    << ExpectCwnd{2.0};                                        // hold epoch
}

TEST(TcpVegasTest, ExitsSlowStartWhenQueueingDetected) {
  StepHarness<TcpVegas> h;
  h << Push{} << Tick{Seconds(0.5)};
  for (std::int64_t s = 0; s <= 3; ++s) {
    h << InjectAck{.seq = s, .rtt = Seconds(0.05)};  // baseRTT 50 ms
  }
  h << ExpectCwnd{4.0}
    // RTT doubles: diff = 4 * (1 - 50/100) = 2 > gamma at the next epoch
    // boundary -> leave slow start with a cwnd/8 trim instead of a loss.
    << InjectAck{.seq = 4, .rtt = Seconds(0.1)}  //
    << InjectAck{.seq = 5, .rtt = Seconds(0.1)}  //
    << ExpectCwnd{3.5} << ExpectSsthresh{2.0}    //
    << ExpectState{TcpPhase::kCongestionAvoidance};
}

TEST(TcpVegasTest, CongestionAvoidanceNudgesWindow) {
  StepHarness<TcpVegas> h;
  h << Push{} << Tick{Seconds(0.5)};
  for (std::int64_t s = 0; s <= 3; ++s) {
    h << InjectAck{.seq = s, .rtt = Seconds(0.05)};
  }
  h << InjectAck{.seq = 4, .rtt = Seconds(0.1)}  //
    << InjectAck{.seq = 5, .rtt = Seconds(0.1)}  // into CA with cwnd 3.5
    << ExpectSsthresh{2.0}
    // RTT back to base: diff ~ 0 < alpha => +1 at the boundary (ACK 9).
    << InjectAck{.seq = 6, .rtt = Seconds(0.05)}  //
    << InjectAck{.seq = 7, .rtt = Seconds(0.05)}  //
    << InjectAck{.seq = 8, .rtt = Seconds(0.05)}  //
    << InjectAck{.seq = 9, .rtt = Seconds(0.05)}  //
    << ExpectCwnd{4.5}
    // Heavy queueing: diff = 4.5 * (1 - 50/300) > beta => -1 at ACK 12.
    << InjectAck{.seq = 10, .rtt = Seconds(0.3)}  //
    << InjectAck{.seq = 11, .rtt = Seconds(0.3)}  //
    << InjectAck{.seq = 12, .rtt = Seconds(0.3)}  //
    << ExpectCwnd{3.5};
}

TEST(TcpVegasTest, LossReductionGentlerThanReno) {
  StepHarness<TcpVegas> h;
  h << Push{} << Tick{Seconds(0.5)};
  for (std::int64_t s = 0; s <= 3; ++s) {
    h << InjectAck{.seq = s, .rtt = Seconds(0.05)};
  }
  h << ExpectCwnd{4.0} << DrainSegments{};
  for (int i = 0; i < 3; ++i) h << InjectAck{.seq = 3};
  h << ExpectState{TcpPhase::kFastRecovery}  //
    << ExpectCwnd{3.0}                       // 3/4 of cwnd, not 1/2
    << ExpectSegment{.seq = 4, .is_retx = true};
}

}  // namespace
}  // namespace muzha
