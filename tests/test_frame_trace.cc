// The MAC-visible trace oracle (phy/frame_trace.h), pinned on six runs.
//
// Each pin hashes every transmission start, every frame a PHY handed its
// MAC and every retry-limit drop of one run built by build_stack. They hold
// what a station did on the air, not how the engine got there, so an engine
// change that claims "no behaviour change" must keep every one of them.
// Carrier edges are not in the hash. If an intentional protocol change
// shifts a hash, re-capture and update it in the same commit.
//
// Beside each hash sits the run's executed event count. It holds how the
// engine got there: a PHY that schedules an event it could have kept as a
// signal record changes no hash but moves the count. An engine change that
// adds or removes events re-pins the counts with the reason.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "phy/frame_trace.h"
#include "phy/position.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "scenario/stack.h"
#include "tests/experiment_hash.h"

namespace muzha {
namespace {

using muzha::testing::city_golden_config;
using muzha::testing::hash_result;
using muzha::testing::kGoldenCityHash;

struct TracedRun {
  std::uint64_t trace_hash;
  std::uint64_t events;
  ExperimentResult result;
};

// run_experiment's one-core body, with a FrameTrace on the channel.
TracedRun run_traced(const ExperimentConfig& cfg) {
  Network net(cfg.seed);
  FrameTrace trace;
  net.channel().set_frame_trace(&trace);
  std::vector<Position> positions = node_positions(cfg, net.sim().rng());
  std::vector<std::size_t> all(positions.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Stack stack = build_stack(cfg, net, positions, all);
  net.run_until(cfg.duration);
  Stack* const stacks[] = {&stack};
  return {trace.hash(), net.sim().events_executed(), collect(cfg, stacks)};
}

ExperimentConfig chain(TcpVariant v, int hops, std::uint64_t seed,
                       double loss) {
  ExperimentConfig cfg;
  cfg.hops = hops;
  cfg.seed = seed;
  cfg.uniform_error_rate = loss;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.flows.push_back(
      {v, 0, static_cast<std::size_t>(hops), SimTime::zero(), 32});
  return cfg;
}

TracedRun expect_trace(const ExperimentConfig& cfg, std::uint64_t pinned,
                       std::uint64_t pinned_events) {
  TracedRun run = run_traced(cfg);
  EXPECT_EQ(run.trace_hash, pinned)
      << std::hex << std::uppercase << "0x" << run.trace_hash;
  EXPECT_EQ(run.events, pinned_events);
  // The hook only observes: the traced run's result is the untraced one's.
  EXPECT_EQ(hash_result(run.result), hash_result(run_experiment(cfg)));
  return run;
}

TEST(FrameTraceOracle, JerseyEightHopsTwoPercentLoss) {
  expect_trace(chain(TcpVariant::kJersey, 8, 5, 0.02),
               0xFC607C73B9F4BC27ull, 209'045u);
}

TEST(FrameTraceOracle, MuzhaSixteenHops) {
  expect_trace(chain(TcpVariant::kMuzha, 16, 1, 0.0), 0x7CD0D4805A4979E9ull,
               382'098u);
}

TEST(FrameTraceOracle, CrossMuzhaAgainstNewReno) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kCross;
  cfg.hops = 4;
  cfg.seed = 11;
  cfg.duration = SimTime::from_seconds(20.0);
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::zero(), 32});
  cfg.flows.push_back({TcpVariant::kNewReno, 5, 8, SimTime::zero(), 32});
  expect_trace(cfg, 0x143059D2AF096E2Cull, 144'724u);
}

TEST(FrameTraceOracle, SackEightHopsFivePercentLoss) {
  const TracedRun run = expect_trace(chain(TcpVariant::kSack, 8, 5, 0.05),
                                     0x8537765AFDC4DBA9ull, 75'882u);
  // Some frames run out of retries here, so the hash covers that record.
  EXPECT_GT(run.result.mac_retry_drops, 0u);
}

// The one pin in which moving relays break a chain's links: positions change
// between transmissions and frames run out of retries.
TEST(FrameTraceOracle, MuzhaEightHopsMovingRelays) {
  ExperimentConfig cfg = chain(TcpVariant::kMuzha, 8, 3, 0.0);
  cfg.duration = SimTime::from_seconds(40.0);
  cfg.chain_spacing = Meters(200.0);
  cfg.relay_max_speed = MetersPerSecond(5.0);
  const TracedRun run = expect_trace(cfg, 0x2DAC5E1BDD52FD95ull, 196'137u);
  EXPECT_GT(run.result.mac_retry_drops, 0u);
}

TEST(FrameTraceOracle, GoldenCity) {
  const ExperimentConfig cfg = city_golden_config();
  const TracedRun run = run_traced(cfg);
  EXPECT_EQ(hash_result(run.result), kGoldenCityHash);
  EXPECT_EQ(run.trace_hash, 0xEFA16A216DF5B1F1ull)
      << std::hex << std::uppercase << "0x" << run.trace_hash;
  EXPECT_EQ(run.events, 350'456u);
}

}  // namespace
}  // namespace muzha
