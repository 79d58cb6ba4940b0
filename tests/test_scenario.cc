// Scenario-layer tests: the chain and cross topologies, experiment config
// handling, and the Table 5.1 simulation parameters.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "phy/position.h"
#include "scenario/experiment.h"
#include "scenario/network.h"

namespace muzha {
namespace {

TEST(Topology, ChainHasHopsPlusOneNodes) {
  Network net(1);
  auto ids = build_chain(net, 4);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(net.size(), 5u);
  // 250 m spacing: consecutive nodes in range, non-consecutive not.
  Meters d01 = distance(net.node(0).device().phy().position(),
                        net.node(1).device().phy().position());
  Meters d02 = distance(net.node(0).device().phy().position(),
                        net.node(2).device().phy().position());
  EXPECT_DOUBLE_EQ(d01.value(), 250.0);
  EXPECT_DOUBLE_EQ(d02.value(), 500.0);
}

TEST(Topology, FourHopCrossHasNineNodes) {
  // Fig 5.15: "4-hop Cross Topology with 9 Nodes".
  std::vector<Position> pos = cross_positions(4);
  ASSERT_EQ(pos.size(), 9u);
  // The centre node, index 2, is the one node both arms share.
  for (std::size_t i = 0; i < pos.size(); ++i) {
    bool at_centre = pos[i].x == 0.0 && pos[i].y == 0.0;
    EXPECT_EQ(at_centre, i == 2) << "node " << i;
  }
}

TEST(Topology, CrossArmsAreOrthogonal) {
  // The arm ends: 0 -> 4 is the horizontal flow, 5 -> 8 (hops + 1 ->
  // 2 * hops) the vertical one, as muzha_cli and fig5_16 run them.
  std::vector<Position> pos = cross_positions(4);
  ASSERT_EQ(pos.size(), 9u);
  EXPECT_DOUBLE_EQ(pos[0].x, -500.0);
  EXPECT_DOUBLE_EQ(pos[0].y, 0.0);
  EXPECT_DOUBLE_EQ(pos[4].x, 500.0);
  EXPECT_DOUBLE_EQ(pos[4].y, 0.0);
  EXPECT_DOUBLE_EQ(pos[5].x, 0.0);
  EXPECT_DOUBLE_EQ(pos[5].y, -500.0);
  EXPECT_DOUBLE_EQ(pos[8].x, 0.0);
  EXPECT_DOUBLE_EQ(pos[8].y, 500.0);
}

TEST(Topology, OddHopCrossRejected) {
  EXPECT_DEATH(cross_positions(3), "even");
}

TEST(Table51, DefaultParametersMatchThePaper) {
  // Table 5.1: link bandwidth 2 Mbps, transmission range 250 m, 802.11 MAC,
  // 50-packet drop-tail IFQ, AODV routing.
  PhyParams phy;
  EXPECT_EQ(phy.data_rate, BitsPerSecond(2'000'000));
  EXPECT_DOUBLE_EQ(phy.rx_range.value(), 250.0);
  EXPECT_EQ(kIfqCapacity, 50u);
  EXPECT_EQ(kMacCwMin, 31u);
  EXPECT_EQ(kMacCwMax, 1023u);
  EXPECT_EQ(kMacSlot, SimTime::from_us(20));
  EXPECT_EQ(kMacSifs, SimTime::from_us(10));
  EXPECT_EQ(kMacDifs, SimTime::from_us(50));
}

TEST(Table51, SegmentSizeMatchesThePaper) {
  // Sec. 5.3: packet size 1460 bytes (payload) => 1500 B IP datagrams.
  EXPECT_EQ(kPayloadBytes, 1460u);
  EXPECT_EQ(kSegmentBytes, 1500u);
}

TEST(ExperimentApi, VariantNamesAreStable) {
  EXPECT_STREQ(variant_name(TcpVariant::kMuzha), "Muzha");
  EXPECT_STREQ(variant_name(TcpVariant::kNewReno), "NewReno");
  EXPECT_STREQ(variant_name(TcpVariant::kSack), "SACK");
  EXPECT_STREQ(variant_name(TcpVariant::kVegas), "Vegas");
  EXPECT_STREQ(variant_name(TcpVariant::kReno), "Reno");
  EXPECT_STREQ(variant_name(TcpVariant::kTahoe), "Tahoe");
}

TEST(ExperimentApi, FactoryBuildsEveryVariant) {
  Network net(1);
  build_chain(net, 1);
  net.use_static_routing();
  for (const VariantInfo& v : variant_table()) {
    TcpConfig cfg;
    cfg.dst = 1;
    auto agent = make_tcp_agent(v.variant, net.sim(), net.node(0), cfg);
    ASSERT_NE(agent, nullptr) << v.name;
  }
}

TEST(ExperimentApi, VariantNamesParseBackAndUnknownNamesAreRejected) {
  for (const VariantInfo& v : variant_table()) {
    EXPECT_EQ(parse_variant(variant_name(v.variant)), v.variant) << v.name;
  }
  // Case-insensitive, so the CLI takes lower-case names.
  EXPECT_EQ(parse_variant("newreno+ecn"), TcpVariant::kNewRenoEcn);
  EXPECT_EQ(parse_variant("westwood"), TcpVariant::kWestwood);
  EXPECT_EQ(parse_variant("cubic"), std::nullopt);
  EXPECT_EQ(parse_variant(""), std::nullopt);
  EXPECT_EQ(parse_variant("newreno+"), std::nullopt);
}

TEST(ExperimentApi, MuzhaRoutersEnabledAutomatically) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(5.0);
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 2, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  // With router assistance on, some DRAI feedback must reach the sender:
  // the window changes beyond its initial value.
  EXPECT_GT(res.flows[0].cwnd_trace.size(), 0u);
}

TEST(ExperimentApi, ThroughputComputedOverFlowLifetime) {
  ExperimentConfig cfg;
  cfg.hops = 1;
  cfg.duration = SimTime::from_seconds(10.0);
  cfg.flows.push_back(
      {TcpVariant::kNewReno, 0, 1, SimTime::from_seconds(5.0), 8});
  auto res = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(res.flows[0].duration.value(), 5.0);
  EXPECT_GT(res.flows[0].throughput, BitsPerSecond(0.0));
}

TEST(ExperimentApi, AggregateHelpers) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(5.0);
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 2, SimTime::zero(), 8});
  cfg.flows.push_back({TcpVariant::kNewReno, 2, 0, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  auto thr = res.flow_throughputs();
  ASSERT_EQ(thr.size(), 2u);
  EXPECT_DOUBLE_EQ(res.total_throughput().value(), thr[0] + thr[1]);
}

TEST(ExperimentApiDeath, RejectsEmptyFlows) {
  ExperimentConfig cfg;
  EXPECT_DEATH(run_experiment(cfg), "at least one flow");
}

TEST(ExperimentApiDeath, RejectsOutOfRangeEndpoints) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 99, SimTime::zero(), 8});
  EXPECT_DEATH(run_experiment(cfg), "out of range");
}

// A rate outside [0, 1] is a config error, not a lossless run (below 0)
// or one that corrupts every frame (above 1, past Probability's
// debug-only range check). NaN is outside too.
TEST(ExperimentApiDeath, RejectsLossRateOutsideUnitInterval) {
  for (double rate : {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig cfg;
    cfg.hops = 2;
    cfg.flows.push_back({TcpVariant::kNewReno, 0, 2, SimTime::zero(), 8});
    cfg.uniform_error_rate = rate;
    EXPECT_DEATH(run_experiment(cfg), "uniform_error_rate must be in")
        << "rate " << rate;
  }
}

ExperimentConfig two_hop_chain() {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 2, SimTime::zero(), 8});
  return cfg;
}

// A negative duration would run nothing and report a negative flow
// duration. A zero duration is a legal setup-only run.
TEST(ExperimentApiDeath, RejectsNegativeDuration) {
  ExperimentConfig cfg = two_hop_chain();
  cfg.duration = SimTime::zero();
  EXPECT_EQ(run_experiment(cfg).flows[0].delivered, 0);
  cfg.duration = SimTime::from_seconds(-1.0);
  EXPECT_DEATH(run_experiment(cfg), "duration must not be negative");
}

TEST(ExperimentApiDeath, RejectsChainSpacingThatIsNotPositive) {
  for (double m : {0.0, -200.0, std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig cfg = two_hop_chain();
    cfg.chain_spacing = Meters(m);
    EXPECT_DEATH(run_experiment(cfg), "chain_spacing must be > 0")
        << "spacing " << m;
  }
}

// Below 1 m/s a relay would be slower than random waypoint's minimum speed.
TEST(ExperimentApiDeath, RejectsRelaySpeedThatIsNeitherZeroNorAtLeastOne) {
  for (double v : {-5.0, 0.5, std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig cfg = two_hop_chain();
    cfg.relay_max_speed = MetersPerSecond(v);
    EXPECT_DEATH(run_experiment(cfg), "relay_max_speed must be 0 or at least")
        << "speed " << v;
  }
}

TEST(ExperimentApiDeath, RejectsChainSettingsOffAChain) {
  for (TopologyKind t : {TopologyKind::kCross, TopologyKind::kRandomField}) {
    ExperimentConfig cfg = two_hop_chain();
    cfg.topology = t;
    cfg.field.nodes = 3;
    cfg.chain_spacing = Meters(200.0);
    EXPECT_DEATH(run_experiment(cfg), "apply to a chain only");
    cfg.chain_spacing = kChainSpacing;
    cfg.relay_max_speed = MetersPerSecond(5.0);
    EXPECT_DEATH(run_experiment(cfg), "apply to a chain only");
  }
}

// A 1-hop chain has no interior relay, so its motion would silently be none.
TEST(ExperimentApiDeath, RejectsRelayMotionOnOneHopChain) {
  ExperimentConfig cfg = two_hop_chain();
  cfg.hops = 1;
  cfg.flows[0].dst = 1;
  cfg.relay_max_speed = MetersPerSecond(5.0);
  EXPECT_DEATH(run_experiment(cfg), "hops must be >= 2");
}

TEST(NetworkApi, StaticRoutingAccessorChecksType) {
  Network net(1);
  build_chain(net, 2);
  net.use_aodv();
  EXPECT_DEATH(net.static_routing(0), "not using static routing");
}

}  // namespace
}  // namespace muzha
