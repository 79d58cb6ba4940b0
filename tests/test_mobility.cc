#include "scenario/mobility.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/experiment.h"
#include "scenario/network.h"
#include "stats/time_series.h"

namespace muzha {
namespace {

TEST(RandomWaypointTest, StaysInsideTheArena) {
  Network net(7);
  Node& n = net.add_node({500, 500});
  RandomWaypointMobility::Config cfg;
  cfg.min_x = 0;
  cfg.max_x = 1000;
  cfg.min_y = 0;
  cfg.max_y = 1000;
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

// Relays wander until links break mid-transfer: the MAC drops frames at its
// retry limit, TCP times out, and once AODV has a route again the flow
// recovers — the route-failure lifecycle of the paper's Sec. 2.3.
// AodvTest.RediscoveryAfterLinkFailure checks the rediscovery itself.
TEST(MobilityIntegration, FlowSurvivesRelayExcursion) {
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.chain_spacing = Meters(200.0);
  cfg.relay_max_speed = MetersPerSecond(15.0);
  cfg.duration = SimTime::from_seconds(40);
  cfg.seed = 2;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 16});
  const ExperimentResult r = run_experiment(cfg);
  const TimeSeries& bins = r.flows[0].throughput_series;
  auto delivered = [](const TimePoint& p) { return p.value > 0.0; };

  // A delivering bin, then an outage, then delivery again.
  auto first = std::find_if(bins.begin(), bins.end(), delivered);
  auto outage = std::find_if_not(first, bins.end(), delivered);
  ASSERT_NE(first, bins.end());
  ASSERT_NE(outage, bins.end()) << "no empty bin after the first delivery";
  EXPECT_NE(std::find_if(outage, bins.end(), delivered), bins.end())
      << "no delivery after the outage at t = " << outage->t.value() << " s";
  EXPECT_GT(r.mac_retry_drops, 0u);
  EXPECT_GT(r.flows[0].timeouts, 0u);
}

}  // namespace
}  // namespace muzha
