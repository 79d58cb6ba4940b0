// RED/ECN marker and ECN-capable NewReno tests.
#include "relwork/ecn.h"

#include <gtest/gtest.h>

#include "phy/channel.h"
#include "scenario/experiment.h"
#include "tests/harness/sender_fixture.h"

namespace muzha {
namespace {

class RedTest : public ::testing::Test {
 protected:
  RedTest() : channel(sim, PhyParams{}) {
    node = std::make_unique<Node>(sim, channel, 0, Position{0, 0});
  }
  // Fills the (never-draining: no routing) queue to `n` packets.
  void fill_queue(int n) {
    // Block the MAC by keeping a packet pending to a nonexistent neighbor:
    // easier to just enqueue directly.
    for (int i = 0; i < n; ++i) {
      std::uint64_t uid = 0;
      node->device().queue().enqueue(make_packet(uid), 1, sim.now());
    }
  }

  Simulator sim{1};
  Channel channel;
  std::unique_ptr<Node> node;
};

// The marker runs with its shipped calibration: EWMA weight 0.05, min_th 3,
// max_th 10 packets, max_p 0.2.
TEST_F(RedTest, NeverMarksBelowMinThreshold) {
  RedEcnMarker red(sim, node->device());
  fill_queue(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(red.should_mark());
  }
  EXPECT_EQ(red.marks(), 0u);
}

TEST_F(RedTest, AlwaysMarksAboveMaxThreshold) {
  RedEcnMarker red(sim, node->device());
  fill_queue(20);
  // Let the average climb past max_th (20 * (1 - 0.95^100) ~ 19.9).
  for (int i = 0; i < 100; ++i) red.should_mark();
  ASSERT_GT(red.avg_queue(), 10.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(red.should_mark());
  }
}

TEST_F(RedTest, MarkingProbabilityGrowsWithAverage) {
  RedEcnMarker low(sim, node->device());
  fill_queue(4);  // just above min_th
  int low_marks = 0;
  for (int i = 0; i < 3000; ++i) {
    if (low.should_mark()) ++low_marks;
  }
  // Drain and refill close to max_th.
  while (!node->device().queue().empty()) node->device().queue().dequeue();
  RedEcnMarker high(sim, node->device());
  fill_queue(9);
  int high_marks = 0;
  for (int i = 0; i < 3000; ++i) {
    if (high.should_mark()) ++high_marks;
  }
  EXPECT_GT(low_marks, 0);
  EXPECT_GT(high_marks, low_marks * 2);
}

TEST_F(RedTest, AverageTracksQueueSmoothly) {
  RedEcnMarker red(sim, node->device());
  fill_queue(10);
  for (int i = 0; i < 5; ++i) red.should_mark();
  double early = red.avg_queue();
  for (int i = 0; i < 100; ++i) red.should_mark();
  double late = red.avg_queue();
  EXPECT_LT(early, late);
  EXPECT_NEAR(late, 10.0, 0.5);
}

TEST_F(RedTest, NeverGivesRateAdvice) {
  RedEcnMarker red(sim, node->device());
  EXPECT_EQ(red.stamp().drai, kDraiAggressiveAccel);
}

// ---------------------------------------------------------------------------

TEST(TcpNewRenoEcnTest, EchoedMarkHalvesOncePerRtt) {
  TcpConfig cfg;
  cfg.window = 32;
  harness::SenderFixture<TcpNewRenoEcn> h(cfg);
  h.start();
  h.ack_each_up_to(9);  // cwnd 11
  double before = h.agent().cwnd().value();
  h.agent().receive(
      h.make_ack_with(10, [](TcpHeader& t) { t.ce_echo = true; }));
  EXPECT_EQ(h.agent().ecn_reductions(), 1u);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), before / 2.0);
  // Second mark inside the same RTT: ignored.
  h.agent().receive(
      h.make_ack_with(11, [](TcpHeader& t) { t.ce_echo = true; }));
  EXPECT_EQ(h.agent().ecn_reductions(), 1u);
}

TEST(TcpNewRenoEcnTest, UnmarkedAcksBehaveLikeNewReno) {
  TcpConfig cfg;
  cfg.window = 32;
  harness::SenderFixture<TcpNewRenoEcn> h(cfg);
  h.start();
  h.ack_each_up_to(5);
  EXPECT_DOUBLE_EQ(h.agent().cwnd().value(), 7.0);  // slow-start growth
  EXPECT_EQ(h.agent().ecn_reductions(), 0u);
}

TEST(TcpNewRenoEcnTest, EndToEndOverRedRouters) {
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(10.0);
  cfg.flows.push_back({TcpVariant::kNewRenoEcn, 0, 4, SimTime::zero(), 32});
  auto res = run_experiment(cfg);
  EXPECT_GT(res.flows[0].delivered, 100);
}

}  // namespace
}  // namespace muzha
