// End-to-end integration tests: full stack (PHY + 802.11 MAC + AODV + TCP)
// over the paper's topologies.
#include <gtest/gtest.h>

#include "scenario/experiment.h"

namespace muzha {
namespace {

ExperimentConfig single_flow(TcpVariant v, int hops, int window,
                             // muzha-lint: allow(raw-unit-double): test-matrix convenience parameter, converted to SimTime below
                             double duration_s, std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.hops = hops;
  cfg.duration = SimTime::from_seconds(duration_s);
  cfg.seed = seed;
  cfg.flows.push_back(
      {v, 0, static_cast<std::size_t>(hops), SimTime::zero(), 8});
  cfg.flows[0].window = window;
  return cfg;
}

TEST(Integration, NewRenoDeliversOverFourHopChain) {
  auto res = run_experiment(single_flow(TcpVariant::kNewReno, 4, 8, 10.0));
  const FlowResult& f = res.flows[0];
  EXPECT_GT(f.delivered, 50);
  EXPECT_GT(f.throughput, BitsPerSecond(20e3));
  // Conservation: the sink cannot deliver more than the sender emitted.
  EXPECT_LE(f.delivered, static_cast<std::int64_t>(f.packets_sent));
}

TEST(Integration, MuzhaDeliversOverFourHopChain) {
  auto res = run_experiment(single_flow(TcpVariant::kMuzha, 4, 8, 10.0));
  EXPECT_GT(res.flows[0].delivered, 100);
  // Router assistance active: DRAI adjustments actually happened.
  EXPECT_GT(res.flows[0].throughput, BitsPerSecond(50e3));
}

TEST(Integration, FiniteTransferCompletesExactly) {
  ExperimentConfig cfg = single_flow(TcpVariant::kNewReno, 2, 8, 30.0);
  cfg.flows[0].window = 8;
  // Every source is unbounded (FTP), so this runs 30 s over 2 hops and
  // checks that well over 200 segments arrive and that the counters agree:
  // no more deliveries than sends, no more retransmissions than sends.
  auto res = run_experiment(cfg);
  const FlowResult& f = res.flows[0];
  EXPECT_GT(f.delivered, 200);
  EXPECT_GE(f.packets_sent, static_cast<std::uint64_t>(f.delivered));
  EXPECT_LE(f.retransmissions, f.packets_sent);
}

TEST(Integration, StaticRoutingMatchesAodvOnQuietChain) {
  ExperimentConfig cfg = single_flow(TcpVariant::kVegas, 4, 8, 10.0);
  auto aodv_res = run_experiment(cfg);
  cfg.static_routing = true;
  auto static_res = run_experiment(cfg);
  // Both routing substrates carry the flow; static routing skips discovery
  // and link-failure stalls so it should do at least as well.
  EXPECT_GT(aodv_res.flows[0].delivered, 100);
  EXPECT_GT(static_res.flows[0].delivered, 100);
  EXPECT_GE(static_res.flows[0].delivered, aodv_res.flows[0].delivered / 2);
}

TEST(Integration, DeterministicGivenSeed) {
  auto a = run_experiment(single_flow(TcpVariant::kNewReno, 4, 8, 5.0, 9));
  auto b = run_experiment(single_flow(TcpVariant::kNewReno, 4, 8, 5.0, 9));
  EXPECT_EQ(a.flows[0].delivered, b.flows[0].delivered);
  EXPECT_EQ(a.flows[0].packets_sent, b.flows[0].packets_sent);
  EXPECT_EQ(a.flows[0].retransmissions, b.flows[0].retransmissions);
  EXPECT_EQ(a.phy_collisions, b.phy_collisions);
}

TEST(Integration, SeedsChangeOutcomes) {
  auto a = run_experiment(single_flow(TcpVariant::kNewReno, 4, 32, 5.0, 1));
  auto b = run_experiment(single_flow(TcpVariant::kNewReno, 4, 32, 5.0, 2));
  // Backoff draws differ; some observable statistic should move.
  EXPECT_TRUE(a.flows[0].packets_sent != b.flows[0].packets_sent ||
              a.phy_collisions != b.phy_collisions ||
              a.flows[0].delivered != b.flows[0].delivered);
}

TEST(Integration, RandomLossDegradesButDoesNotKillThroughput) {
  ExperimentConfig cfg = single_flow(TcpVariant::kMuzha, 4, 8, 10.0);
  auto clean = run_experiment(cfg);
  cfg.uniform_error_rate = 0.05;
  auto lossy = run_experiment(cfg);
  EXPECT_GT(lossy.channel_error_losses, 0u);
  EXPECT_GT(lossy.flows[0].delivered, 20);
  EXPECT_LT(lossy.flows[0].delivered, clean.flows[0].delivered);
}

TEST(Integration, MuzhaClassifiesRandomLossAsUnmarked) {
  ExperimentConfig cfg = single_flow(TcpVariant::kMuzha, 4, 8, 15.0);
  cfg.uniform_error_rate = 0.03;
  auto res = run_experiment(cfg);
  // With random channel loss and no congestion, unmarked (random) loss
  // events should dominate marked (congestion) ones.
  EXPECT_GT(res.flows[0].unmarked_loss_events, res.flows[0].marked_loss_events);
}

TEST(Integration, CwndTraceIsRecorded) {
  auto res = run_experiment(single_flow(TcpVariant::kMuzha, 4, 8, 5.0));
  const TimeSeries& trace = res.flows[0].cwnd_trace;
  ASSERT_GT(trace.size(), 5u);
  for (const TimePoint& p : trace) {
    EXPECT_GE(p.value, 1.0);
    EXPECT_GE(p.t, Seconds(0.0));
    EXPECT_LE(p.t, Seconds(5.0));
  }
}

TEST(Integration, ThroughputSeriesSumsToDelivered) {
  auto res = run_experiment(single_flow(TcpVariant::kNewReno, 4, 8, 10.0));
  const FlowResult& f = res.flows[0];
  double bits = 0;
  for (const TimePoint& p : f.throughput_series) bits += p.value;  // 1 s bins
  EXPECT_NEAR(bits, static_cast<double>(f.delivered) * kPayloadBytes * 8.0,
              1.0);
}

TEST(Integration, TwoFlowsOnChainBothProgress) {
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.seed = 3;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::zero(), 8});
  cfg.flows.push_back(
      {TcpVariant::kMuzha, 0, 4, SimTime::from_seconds(5.0), 8});
  auto res = run_experiment(cfg);
  EXPECT_GT(res.flows[0].delivered, 50);
  EXPECT_GT(res.flows[1].delivered, 50);
}

TEST(Integration, CrossTopologyCarriesBothFlows) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kCross;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.seed = 2;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::zero(), 8});
  cfg.flows.push_back({TcpVariant::kMuzha, 5, 8, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  // Both flows move data through the shared centre.
  EXPECT_GT(res.flows[0].delivered + res.flows[1].delivered, 100);
}

TEST(Integration, LongChainStillDelivers) {
  auto res = run_experiment(single_flow(TcpVariant::kMuzha, 16, 8, 10.0));
  EXPECT_GT(res.flows[0].delivered, 30);
}

TEST(Integration, SubstrateCountersAreConsistent) {
  auto res = run_experiment(single_flow(TcpVariant::kNewReno, 8, 32, 10.0));
  // MAC retry drops imply at least as many PHY-level collisions or losses
  // occurred; both counters must be present and sane (no underflow).
  EXPECT_LT(res.mac_retry_drops, 10000u);
  EXPECT_LT(res.ifq_drops, 100000u);
}

}  // namespace
}  // namespace muzha
