// Scenario-layer tests: the chain and cross topologies, experiment config
// handling and its rules, and the Table 5.1 simulation parameters.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
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

// The base every row of the rule table changes: a valid two-hop chain
// with one flow.
ExperimentConfig two_hop_chain() {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 2, SimTime::zero(), 8});
  return cfg;
}

// A valid field: four districts 1000 m wide, 1100 m apart (decoupled at
// carrier-sense range), one flow inside district 0.
void district_field(ExperimentConfig& cfg) {
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 40;
  cfg.field.districts = 4;
  cfg.field.width = Meters(4 * 1000.0 + 3 * 1100.0);
  cfg.field.height = Meters(1000.0);
  cfg.flows = {{TcpVariant::kNewReno, 0, 4, SimTime::zero(), 8}};
}

struct RuleRow {
  const char* change;                   // what the row does to the base
  void (*apply)(ExperimentConfig& cfg);
  std::vector<std::string> messages;    // validate()'s, in its order
};

// validate() is the one list of config rules. One row per rule, more where
// a rule breaks in more than one way (NaN breaks every rule on a double),
// one per config that used to crash, hang or abort inside the engine, and
// the valid configs that get no message.
TEST(Validate, EachBrokenRuleGetsItsMessage) {
  using C = ExperimentConfig&;
  using enum TopologyKind;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::string spacing = "chain_spacing must be > 0";
  const std::string speed = "relay_max_speed must be 0 or at least 1 m/s";
  const std::string chain_only =
      "chain_spacing and relay_max_speed apply to a chain only";
  const std::string gaps = "field.width must leave room for the district gaps";
  const std::string cbr_rate = "cbr_flows[0]: rate must be > 0";
  const std::string cbr_size = "cbr_flows[0]: packet_size_bytes must be >= 20";
  const std::string loss = "uniform_error_rate must be in [0, 1]";
  const std::string districts =
      "a sharded field needs at least one district per shard: territories "
      "are runs of whole district strips";
  const std::string coupled =
      "a sharded field needs districts decoupled at carrier-sense range: "
      "district_gap must exceed cs_range";
  const RuleRow rows[] = {
      // Valid.
      {"nothing", [](C) {}, {}},
      {"zero duration", [](C c) { c.duration = SimTime::zero(); }, {}},
      {"four-hop cross", [](C c) { c.topology = kCross; c.hops = 4; }, {}},
      {"relays moving on a 200 m chain",
       [](C c) {
         c.chain_spacing = Meters(200.0);
         c.relay_max_speed = MetersPerSecond(5.0);
       },
       {}},
      {"district field on 4 shards",
       [](C c) { district_field(c); c.shards = 4; },
       {}},
      {"CBR of 20-byte packets",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(1e5), 20, {}}}; },
       {}},
      // Topology.
      {"chain of 0 hops", [](C c) { c.hops = 0; },
       {"hops must be >= 1 for a chain"}},
      {"cross of 3 hops", [](C c) { c.topology = kCross; c.hops = 3; },
       {"hops must be even and >= 2 for a cross"}},
      {"one-node field", [](C c) { district_field(c); c.field.nodes = 1; },
       {"field.nodes must be >= 2"}},
      {"field 0 wide", [](C c) { district_field(c); c.field.width = {}; },
       {"field.width must be > 0"}},
      {"field NaN wide",
       [](C c) { district_field(c); c.field.width = Meters(kNaN); },
       {"field.width must be > 0"}},
      {"field 0 high", [](C c) { district_field(c); c.field.height = {}; },
       {"field.height must be > 0"}},
      {"field NaN high",
       [](C c) { district_field(c); c.field.height = Meters(kNaN); },
       {"field.height must be > 0"}},
      {"field of 0 districts",
       [](C c) { district_field(c); c.field.districts = 0; },
       {"field.districts must be >= 1"}},
      {"district gaps as wide as the field",
       [](C c) { district_field(c); c.field.width = Meters(3 * 1100.0); },
       {gaps}},
      {"NaN district gap",
       [](C c) { district_field(c); c.field.district_gap = Meters(kNaN); },
       {gaps}},
      // Chain settings.
      {"spacing 0", [](C c) { c.chain_spacing = {}; }, {spacing}},
      {"spacing -200", [](C c) { c.chain_spacing = Meters(-200.0); },
       {spacing}},
      {"spacing NaN", [](C c) { c.chain_spacing = Meters(kNaN); }, {spacing}},
      {"relay speed -5",
       [](C c) { c.relay_max_speed = MetersPerSecond(-5.0); }, {speed}},
      {"relay speed 0.5, below random waypoint's minimum",
       [](C c) { c.relay_max_speed = MetersPerSecond(0.5); }, {speed}},
      {"relay speed NaN",
       [](C c) { c.relay_max_speed = MetersPerSecond(kNaN); }, {speed}},
      {"spacing on a cross",
       [](C c) {
         c.topology = kCross; c.hops = 4;
         c.chain_spacing = Meters(200.0);
       },
       {chain_only}},
      {"relay motion on a field",
       [](C c) {
         district_field(c);
         c.relay_max_speed = MetersPerSecond(5.0);
       },
       {chain_only}},
      // A 1-hop chain has no interior relay, so its motion would be none.
      {"relay motion on a 1-hop chain",
       [](C c) {
         c.hops = 1; c.flows[0].dst = 1;
         c.relay_max_speed = MetersPerSecond(5.0);
       },
       {"relay motion needs an interior relay: hops must be >= 2"}},
      // Duration and flows.
      {"duration -1 s",
       [](C c) { c.duration = SimTime::from_seconds(-1.0); },
       {"duration must not be negative"}},
      {"no flow", [](C c) { c.flows.clear(); },
       {"experiment needs at least one flow"}},
      {"flow to node 9 of a 4-hop chain",
       [](C c) { c.hops = 4; c.flows[0].dst = 9; },
       {"flows[0]: endpoints out of range"}},
      {"flow to its own source", [](C c) { c.flows[0].dst = 0; },
       {"flows[0]: endpoints must differ"}},
      {"window 0", [](C c) { c.flows[0].window = 0; },
       {"flows[0]: window must be >= 1"}},
      {"flow starting at -1 s",
       [](C c) { c.flows[0].start_time = SimTime::from_seconds(-1.0); },
       {"flows[0]: start_time must not be negative"}},
      {"second flow with window 0",
       [](C c) { c.flows.push_back({TcpVariant::kSack, 2, 0, {}, 0}); },
       {"flows[1]: window must be >= 1"}},
      // Background load.
      {"CBR to node 9",
       [](C c) { c.cbr_flows = {{0, 9, BitsPerSecond(1e5), 512, {}}}; },
       {"cbr_flows[0]: endpoints out of range"}},
      {"CBR to its own source",
       [](C c) { c.cbr_flows = {{1, 1, BitsPerSecond(1e5), 512, {}}}; },
       {"cbr_flows[0]: endpoints must differ"}},
      {"CBR at rate 0",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(0.0), 512, {}}}; },
       {cbr_rate}},
      {"CBR at rate -1",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(-1.0), 512, {}}}; },
       {cbr_rate}},
      {"CBR at rate NaN",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(kNaN), 512, {}}}; },
       {cbr_rate}},
      {"CBR of 0-byte packets",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(1e5), 0, {}}}; },
       {cbr_size}},
      // Airtime equal to EIFS, the limit of the signal-end keys.
      {"CBR of 15-byte packets",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(1e5), 15, {}}}; },
       {cbr_size}},
      {"CBR of 19-byte packets",
       [](C c) { c.cbr_flows = {{2, 0, BitsPerSecond(1e5), 19, {}}}; },
       {cbr_size}},
      {"CBR starting at -1 s",
       [](C c) {
         c.cbr_flows = {{2, 0, BitsPerSecond(1e5), 512,
                         SimTime::from_seconds(-1.0)}};
       },
       {"cbr_flows[0]: start_time must not be negative"}},
      // Loss: below 0 would be a lossless run, above 1 past Probability's
      // debug-only range check.
      {"loss -0.5", [](C c) { c.uniform_error_rate = -0.5; }, {loss}},
      {"loss 1.5", [](C c) { c.uniform_error_rate = 1.5; }, {loss}},
      {"loss NaN", [](C c) { c.uniform_error_rate = kNaN; }, {loss}},
      // Shards.
      {"0 shards", [](C c) { c.shards = 0; }, {"shards must be >= 1"}},
      {"2 shards on a chain", [](C c) { c.shards = 2; },
       {"shards > 1 needs a field topology (kRandomField)"}},
      {"8 shards over 4 districts",
       [](C c) { district_field(c); c.shards = 8; }, {districts}},
      // Static fields follow the same rule: territories are strips.
      {"2 shards over 1 static district",
       [](C c) {
         district_field(c); c.shards = 2;
         c.field.districts = 1; c.field.mobile = false;
       },
       {districts}},
      // Channel::deliver drops a frame only beyond cs_range (550 m), so at
      // a 550 m gap a frame still reaches the other shard.
      {"districts 550 m apart on 2 shards",
       [](C c) {
         district_field(c); c.shards = 2;
         c.field.district_gap = Meters(550.0);
       },
       {coupled}},
      // Several rules at once, each named, in validate()'s order.
      {"loss 2 and window 0",
       [](C c) { c.uniform_error_rate = 2.0; c.flows[0].window = 0; },
       {"flows[0]: window must be >= 1", loss}},
      {"chain of 0 hops on 2 shards", [](C c) { c.hops = 0; c.shards = 2; },
       {"hops must be >= 1 for a chain",
        "shards > 1 needs a field topology (kRandomField)"}},
  };
  for (const RuleRow& row : rows) {
    ExperimentConfig cfg = two_hop_chain();
    row.apply(cfg);
    EXPECT_EQ(validate(cfg), row.messages) << row.change;
  }
}

// run_experiment checks the rules before it builds anything and names
// every broken one. Built, this config would die on the first of them, in
// TcpAgent's constructor.
TEST(ValidateDeath, RunExperimentRefusesABadConfigNamingEveryRule) {
  ExperimentConfig cfg = two_hop_chain();
  cfg.flows[0].window = 0;
  cfg.uniform_error_rate = 2.0;
  EXPECT_DEATH(run_experiment(cfg),
               "invalid config: flows\\[0\\]: window must be >= 1\n"
               "run_experiment: invalid config: uniform_error_rate must be in");
}

// run_experiment refuses each config below at entry with the message of
// the rule it breaks; the rule table above checks validate()'s exact list.

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
    ExperimentConfig cfg = two_hop_chain();
    cfg.uniform_error_rate = rate;
    EXPECT_DEATH(run_experiment(cfg), "uniform_error_rate must be in")
        << "rate " << rate;
  }
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
