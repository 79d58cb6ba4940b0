// DRAI quantizer (Table 5.2) and bandwidth estimator tests.
#include "core/drai.h"

#include <gtest/gtest.h>

#include "core/bandwidth_estimator.h"
#include "net/node.h"
#include "phy/channel.h"
#include "routing/static_routing.h"
#include "sim/simulator.h"

namespace muzha {
namespace {

TEST(Drai, QueueQuantizationThresholds) {
  DraiConfig cfg;  // 0.05 / 0.25 / 0.55 / 0.85
  EXPECT_EQ(drai_from_queue(0.00, cfg), kDraiAggressiveAccel);
  EXPECT_EQ(drai_from_queue(0.04, cfg), kDraiAggressiveAccel);
  EXPECT_EQ(drai_from_queue(0.05, cfg), kDraiModerateAccel);
  EXPECT_EQ(drai_from_queue(0.24, cfg), kDraiModerateAccel);
  EXPECT_EQ(drai_from_queue(0.25, cfg), kDraiStabilize);
  EXPECT_EQ(drai_from_queue(0.54, cfg), kDraiStabilize);
  EXPECT_EQ(drai_from_queue(0.55, cfg), kDraiModerateDecel);
  EXPECT_EQ(drai_from_queue(0.84, cfg), kDraiModerateDecel);
  EXPECT_EQ(drai_from_queue(0.85, cfg), kDraiAggressiveDecel);
  EXPECT_EQ(drai_from_queue(1.00, cfg), kDraiAggressiveDecel);
}

TEST(Drai, UtilizationQuantizationNeverPanics) {
  DraiConfig cfg;  // 0.50 / 0.80 / 0.96
  EXPECT_EQ(drai_from_utilization(0.10, cfg), kDraiAggressiveAccel);
  EXPECT_EQ(drai_from_utilization(0.60, cfg), kDraiModerateAccel);
  EXPECT_EQ(drai_from_utilization(0.90, cfg), kDraiStabilize);
  EXPECT_EQ(drai_from_utilization(0.99, cfg), kDraiModerateDecel);
  // A busy medium with an empty queue is never an aggressive-deceleration
  // emergency.
  EXPECT_EQ(drai_from_utilization(1.00, cfg), kDraiModerateDecel);
}

TEST(Drai, CombinedTakesTheMoreCongestedSignal) {
  DraiConfig cfg;
  EXPECT_EQ(compute_drai(0.0, 0.0, cfg), kDraiAggressiveAccel);
  EXPECT_EQ(compute_drai(0.9, 0.0, cfg), kDraiAggressiveDecel);
  EXPECT_EQ(compute_drai(0.0, 0.99, cfg), kDraiModerateDecel);
  EXPECT_EQ(compute_drai(0.3, 0.6, cfg), kDraiStabilize);
}

TEST(Drai, Table52WindowActions) {
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiAggressiveAccel, Segments(4.0)).value(), 8.0);
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiModerateAccel, Segments(4.0)).value(), 5.0);
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiStabilize, Segments(4.0)).value(), 4.0);
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiModerateDecel, Segments(4.0)).value(), 3.0);
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiAggressiveDecel, Segments(4.0)).value(), 2.0);
}

TEST(Drai, WindowActionsFloorAtOne) {
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiModerateDecel, Segments(1.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(apply_drai_to_cwnd(kDraiAggressiveDecel, Segments(1.5)).value(), 1.0);
}

TEST(Drai, ConfigurableThresholds) {
  DraiConfig cfg;
  cfg.q_aggressive_accel = 0.5;
  EXPECT_EQ(drai_from_queue(0.4, cfg), kDraiAggressiveAccel);
}

// ---------------------------------------------------------------------------
// BandwidthEstimator integration
// ---------------------------------------------------------------------------

TEST(BandwidthEstimator, IdleMediumReportsAggressiveAccel) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node n(sim, channel, 0, {0, 0});
  BandwidthEstimator est(sim, n.device());
  est.start();
  sim.run_until(SimTime::from_seconds(1));
  EXPECT_DOUBLE_EQ(est.utilization(), 0.0);
  EXPECT_EQ(est.current_drai(), kDraiAggressiveAccel);
  EXPECT_FALSE(est.stamp().mark);
}

TEST(BandwidthEstimator, BusyMediumLowersDrai) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  Node b(sim, channel, 1, {200, 0});
  auto ra = std::make_unique<StaticRouting>(a);
  ra->add_route(1, 1);
  a.set_routing(std::move(ra));
  b.set_routing(std::make_unique<StaticRouting>(b));

  BandwidthEstimator est(sim, b.device());
  est.start();

  // Saturate the medium with back-to-back 1500 B frames from a to b.
  std::function<void()> pump = [&] {
    PacketPtr p = a.new_packet(1, IpProto::kNone, 1500);
    a.send(std::move(p));
    sim.schedule_in(SimTime::from_ms(2), pump);
  };
  pump();
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_GT(est.utilization(), 0.8);
  EXPECT_LT(est.current_drai(), kDraiAggressiveAccel);
}

TEST(BandwidthEstimator, FullQueueForcesMarking) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  auto ra = std::make_unique<StaticRouting>(a);
  ra->add_route(1, 1);  // next hop does not exist: queue backs up
  a.set_routing(std::move(ra));

  BandwidthEstimator est(sim, a.device());
  est.start();
  for (std::size_t i = 0; i < kIfqCapacity; ++i) {
    a.send(a.new_packet(1, IpProto::kNone, 1500));
  }
  // The MAC holds the first packet and the IFQ the other 49: the queue is
  // nearly full, deceleration region, marking on.
  EXPECT_LE(est.current_drai(), kDraiModerateDecel);
  EXPECT_TRUE(est.stamp().mark);
}

TEST(BandwidthEstimator, UtilizationDecaysWhenTrafficStops) {
  Simulator sim{1};
  Channel channel(sim, PhyParams{});
  Node a(sim, channel, 0, {0, 0});
  Node b(sim, channel, 1, {200, 0});
  auto ra = std::make_unique<StaticRouting>(a);
  ra->add_route(1, 1);
  a.set_routing(std::move(ra));
  b.set_routing(std::make_unique<StaticRouting>(b));
  BandwidthEstimator est(sim, b.device());
  est.start();
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(SimTime::from_ms(2 * i),
                    [&] { a.send(a.new_packet(1, IpProto::kNone, 1500)); });
  }
  sim.run_until(SimTime::from_ms(120));
  double busy = est.utilization();
  ASSERT_GT(busy, 0.5);
  sim.run_until(SimTime::from_seconds(2));
  EXPECT_LT(est.utilization(), 0.05);
}

}  // namespace
}  // namespace muzha
