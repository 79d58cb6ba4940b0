// Unit tests for the TCP Muzha sender: Table 4.1's event/behaviour matrix
// and the Table 5.2 multi-level rate adjustment.
#include "core/tcp_muzha.h"

#include <gtest/gtest.h>

#include "tests/harness/sender_fixture.h"

namespace muzha {
namespace {

TEST(TcpMuzhaTest, StartsInCongestionAvoidanceWithWindowTwo) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  // No slow start: the session begins with cwnd 2 in CA.
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 2.0);
  EXPECT_EQ(h.agent().next_seq(), 2);
}

TEST(TcpMuzhaTest, ModerateAccelerationAddsOnePerRtt) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiModerateAccel);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 3.0);
  EXPECT_EQ(h.agent().rate_adjustments(), 1u);
  EXPECT_EQ(h.agent().last_epoch_mrai(), kDraiModerateAccel);
}

TEST(TcpMuzhaTest, AggressiveAccelerationDoublesPerRtt) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 4.0);
}

TEST(TcpMuzhaTest, StabilizeHoldsWindow) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiStabilize);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 2.0);
}

TEST(TcpMuzhaTest, ModerateDecelerationSubtractsOne) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiModerateAccel);  // cwnd 3
  h.ack_each_up_to(h.agent().next_seq() - 1, kDraiModerateDecel);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 2.0);
}

TEST(TcpMuzhaTest, AggressiveDecelerationHalves) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);  // cwnd 4
  h.ack_each_up_to(h.agent().next_seq() - 1, kDraiAggressiveDecel);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 2.0);
}

TEST(TcpMuzhaTest, WindowNeverFallsBelowOne) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  for (int i = 0; i < 6; ++i) {
    h.ack_each_up_to(h.agent().next_seq() - 1, kDraiAggressiveDecel);
  }
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 1.0);
}

TEST(TcpMuzhaTest, AppliesMostConservativeMraiOfTheEpoch) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiModerateAccel);  // epoch 1 ends; cwnd 3; next epoch spans
                                 // everything sent so far
  std::int64_t boundary = h.agent().next_seq() - 1;
  // Mixed recommendations inside one epoch: min(5, 1, 5) = 1 wins.
  h.ack(1, kDraiAggressiveAccel);
  h.ack(2, kDraiAggressiveDecel);
  h.ack_each_up_to(boundary, kDraiAggressiveAccel);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 1.5);  // 3 halved
}

TEST(TcpMuzhaTest, MarkedTripleDupAckHalvesAndEntersFF) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);      // cwnd 4
  h.ack(1, kDraiAggressiveAccel);
  h.ack_each_up_to(5, kDraiModerateAccel);
  double before = h.agent().cwnd().value();
  h.dup_acks(5, 3, /*marked=*/true);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before / 2.0);
  EXPECT_EQ(h.agent().marked_loss_events(), 1u);
  EXPECT_EQ(h.agent().unmarked_loss_events(), 0u);
  EXPECT_EQ(h.agent().retransmissions(), 1u);
}

TEST(TcpMuzhaTest, UnmarkedTripleDupAckRetransmitsWithoutSlowdown) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  h.ack_each_up_to(4, kDraiModerateAccel);
  double before = h.agent().cwnd().value();
  h.dup_acks(4, 3, /*marked=*/false);
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before);  // random loss: no reduction
  EXPECT_EQ(h.agent().unmarked_loss_events(), 1u);
  EXPECT_EQ(h.agent().retransmissions(), 1u);
}

TEST(TcpMuzhaTest, PartialAckInFFRetransmitsNextHole) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  h.ack_each_up_to(4, kDraiModerateAccel);
  std::int64_t recover = h.agent().next_seq() - 1;
  h.dup_acks(4, 3, true);
  std::uint64_t retx = h.agent().retransmissions();
  h.ack(6);  // partial
  EXPECT_TRUE(h.agent().in_recovery());
  EXPECT_EQ(h.agent().retransmissions(), retx + 1);
  double cwnd_in_ff = h.agent().cwnd().value();
  h.ack(recover);  // full ACK: back to CA, window untouched
  EXPECT_FALSE(h.agent().in_recovery());
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), cwnd_in_ff);
}

TEST(TcpMuzhaTest, NoDraiAdjustmentsDuringFF) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  h.ack_each_up_to(4, kDraiModerateAccel);
  h.dup_acks(4, 3, true);
  std::uint64_t adj = h.agent().rate_adjustments();
  h.ack(6, kDraiAggressiveAccel);  // partial ACK carries accel advice
  EXPECT_EQ(h.agent().rate_adjustments(), adj);  // ignored inside FF
}

TEST(TcpMuzhaTest, TimeoutResetsWindowToOneAndStaysInCA) {
  harness::SenderFixture<TcpMuzha> h;
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  ASSERT_GT(h.agent().cwnd().value(), 1.0);
  h.run_ms(4000);
  EXPECT_EQ(h.agent().timeouts(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 1.0);
  EXPECT_FALSE(h.agent().in_recovery());
  // Recovery from the timeout is plain CA driven by router advice again —
  // the adjustment lands at the first post-timeout epoch boundary.
  std::int64_t first_unacked = h.agent().highest_ack() + 1;
  h.ack(first_unacked, kDraiModerateAccel);        // inside the epoch
  h.ack(first_unacked + 1, kDraiModerateAccel);    // crosses the boundary
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 2.0);
}

TEST(TcpMuzhaTest, LossDiscriminationOffTreatsAllLossAsCongestion) {
  harness::SenderFixture<TcpMuzha> h;
  h.agent().set_loss_discrimination(false);
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  h.ack_each_up_to(4, kDraiModerateAccel);
  double before = h.agent().cwnd().value();
  h.dup_acks(4, 3, /*marked=*/false);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before / 2.0);
  EXPECT_EQ(h.agent().marked_loss_events(), 1u);
}

TEST(TcpMuzhaTest, DupAcksBeyondThresholdKeepPipeFed) {
  TcpConfig cfg;
  cfg.window = 16;
  harness::SenderFixture<TcpMuzha> h(cfg);
  h.start();
  h.ack(0, kDraiAggressiveAccel);
  h.ack_each_up_to(4, kDraiAggressiveAccel);
  h.dup_acks(4, 3, false);
  std::uint64_t sent = h.agent().packets_sent();
  h.dup_acks(4, 2, false);
  // send_much may emit new segments while recovering (window permitting).
  EXPECT_GE(h.agent().packets_sent(), sent);
}

}  // namespace
}  // namespace muzha
