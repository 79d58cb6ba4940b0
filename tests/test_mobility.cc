#include "scenario/mobility.h"

#include <gtest/gtest.h>

#include "routing/aodv.h"
#include "scenario/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_variants.h"

namespace muzha {
namespace {

TEST(LinearMobilityTest, MovesAtConfiguredVelocity) {
  Network net(1);
  Node& n = net.add_node({0, 0});
  LinearMobility::Config cfg;
  cfg.vx = MetersPerSecond(10.0);
  cfg.vy = MetersPerSecond(-5.0);
  LinearMobility mob(net.sim(), n, cfg);
  mob.start();
  net.run_until(SimTime::from_seconds(10));
  Position p = n.device().phy().position();
  EXPECT_NEAR(p.x, 100.0, 2.0);
  EXPECT_NEAR(p.y, -50.0, 1.0);
}

TEST(RandomWaypointTest, StaysInsideTheArena) {
  Network net(7);
  Node& n = net.add_node({500, 500});
  RandomWaypointMobility::Config cfg;
  cfg.min_x = 0;
  cfg.max_x = 1000;
  cfg.min_y = 0;
  cfg.max_y = 1000;
  cfg.min_speed = MetersPerSecond(5);
  cfg.max_speed = MetersPerSecond(20);
  cfg.pause = SimTime::from_seconds(0.5);
  RandomWaypointMobility mob(net.sim(), n, cfg);
  mob.start();
  for (int t = 1; t <= 120; ++t) {
    net.run_until(SimTime::from_seconds(t));
    Position p = n.device().phy().position();
    EXPECT_GE(p.x, -1.0);
    EXPECT_LE(p.x, 1001.0);
    EXPECT_GE(p.y, -1.0);
    EXPECT_LE(p.y, 1001.0);
  }
}

TEST(RandomWaypointTest, ActuallyMoves) {
  Network net(7);
  Node& n = net.add_node({500, 500});
  RandomWaypointMobility::Config cfg;
  RandomWaypointMobility mob(net.sim(), n, cfg);
  mob.start();
  net.run_until(SimTime::from_seconds(30));
  Position p = n.device().phy().position();
  double moved = std::abs(p.x - 500) + std::abs(p.y - 500);
  EXPECT_GT(moved, 10.0);
}

// A relay wanders out of range mid-transfer: the MAC reports link failure,
// AODV issues a RERR, and when the relay returns the flow recovers — the
// route-failure lifecycle of the paper's Sec. 2.3.
TEST(MobilityIntegration, FlowSurvivesRelayExcursion) {
  Network net(3);
  // 200 m spacing leaves 50 m of slack below the 250 m decode range, so the
  // links only break once the relay's lateral offset exceeds ~150 m.
  build_chain(net, 2, /*spacing=*/Meters(200.0));
  net.use_aodv();

  TcpConfig tc;
  tc.dst = net.node(2).id();
  tc.src_port = 1000;
  tc.dst_port = 2000;
  tc.window = 8;
  TcpNewReno agent(net.sim(), net.node(0), tc);
  TcpSink sink(net.sim(), net.node(2), 2000);
  sink.start();
  net.sim().schedule_at(SimTime::zero(), [&] { agent.start(); });

  // The relay (node 1) wanders perpendicular to the chain, breaking both
  // links once its lateral offset exceeds ~150 m, then comes back.
  LinearMobility::Config mc;
  mc.vy = MetersPerSecond(50.0);
  LinearMobility mob(net.sim(), net.node(1), mc);
  net.sim().schedule_at(SimTime::from_seconds(5),
                        [&] { mob.start(); });
  net.sim().schedule_at(SimTime::from_seconds(10),
                        [&] { mob.set_velocity(MetersPerSecond(0.0), MetersPerSecond(-50.0)); });
  net.sim().schedule_at(SimTime::from_seconds(15),
                        [&] { mob.set_velocity(MetersPerSecond(0.0), MetersPerSecond(0.0)); });

  net.run_until(SimTime::from_seconds(8));
  std::int64_t mid = sink.delivered();
  EXPECT_GT(mid, 50);  // transferred before the excursion broke the links

  // Leave plenty of time for the backed-off RTO to fire after the relay
  // returns at t = 15 s.
  net.run_until(SimTime::from_seconds(60));
  std::int64_t final_count = sink.delivered();
  // The flow recovered after the relay returned.
  EXPECT_GT(final_count, mid + 50);
  // The excursion really did break links.
  auto& aodv0 = dynamic_cast<Aodv&>(net.node(0).routing());
  auto& aodv1 = dynamic_cast<Aodv&>(net.node(1).routing());
  EXPECT_GT(aodv0.rreqs_originated(), 1u);
  (void)aodv1;
}

}  // namespace
}  // namespace muzha
