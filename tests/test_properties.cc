// Property-based sweeps (parameterized gtest): invariants that must hold for
// every (variant, hops, window, seed) combination.
#include <cctype>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/experiment.h"

namespace muzha {
namespace {

struct SweepParam {
  TcpVariant variant;
  int hops;
  int window;
  std::uint64_t seed;
};

// Names each instance (through PrintToStringParamName below) and prints the
// parameter into every discovered ctest name. Without this overload gtest
// dumps the struct's bytes, and the padding bytes are not initialised, so
// the names would vary from build to build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  std::string name = variant_name(p.variant);
  // gtest parameter names must be alphanumeric.
  std::erase_if(name, [](char c) { return !std::isalnum(c); });
  *os << name << "_h" << p.hops << "_w" << p.window << "_s" << p.seed;
}

class SingleFlowSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SingleFlowSweep, TransportInvariantsHold) {
  const SweepParam& p = GetParam();
  ExperimentConfig cfg;
  cfg.hops = p.hops;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = p.seed;
  cfg.flows.push_back(
      {p.variant, 0, static_cast<std::size_t>(p.hops), SimTime::zero(),
       p.window});
  auto res = run_experiment(cfg);
  const FlowResult& f = res.flows[0];

  // Liveness: the flow makes progress on every configuration.
  EXPECT_GT(f.delivered, 0) << "flow starved";

  // Conservation: in-order deliveries never exceed transmissions, and
  // retransmissions are a subset of transmissions.
  EXPECT_LE(f.delivered, static_cast<std::int64_t>(f.packets_sent));
  EXPECT_LT(f.retransmissions, f.packets_sent);

  // The window trace respects cwnd >= 1 at all times.
  for (const TimePoint& pt : f.cwnd_trace) {
    EXPECT_GE(pt.value, 1.0);
  }

  // Goodput is bounded by the channel rate.
  EXPECT_LT(f.throughput, BitsPerSecond(2e6));

  // Vegas's signature conservatism: almost no retransmissions.
  if (p.variant == TcpVariant::kVegas && p.hops <= 8) {
    EXPECT_LE(f.retransmissions, 20u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsHopsWindows, SingleFlowSweep,
    ::testing::Values(
        SweepParam{TcpVariant::kNewReno, 2, 8, 1},
        SweepParam{TcpVariant::kNewReno, 4, 32, 1},
        SweepParam{TcpVariant::kNewReno, 8, 8, 2},
        SweepParam{TcpVariant::kSack, 4, 8, 1},
        SweepParam{TcpVariant::kSack, 8, 32, 2},
        SweepParam{TcpVariant::kVegas, 4, 8, 1},
        SweepParam{TcpVariant::kVegas, 8, 32, 1},
        SweepParam{TcpVariant::kMuzha, 2, 8, 1},
        SweepParam{TcpVariant::kMuzha, 4, 32, 2},
        SweepParam{TcpVariant::kMuzha, 8, 8, 3},
        SweepParam{TcpVariant::kReno, 4, 8, 1},
        SweepParam{TcpVariant::kTahoe, 4, 8, 1},
        SweepParam{TcpVariant::kDoor, 4, 16, 1},
        SweepParam{TcpVariant::kAdtcp, 4, 16, 1},
        SweepParam{TcpVariant::kJersey, 4, 16, 1},
        SweepParam{TcpVariant::kRoVegas, 4, 16, 1},
        SweepParam{TcpVariant::kNewRenoEcn, 4, 16, 1},
        SweepParam{TcpVariant::kDoor, 8, 8, 2},
        SweepParam{TcpVariant::kJersey, 8, 32, 2},
        SweepParam{TcpVariant::kRoVegas, 8, 8, 2}),
    ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, MuzhaSurvivesRandomLoss) {
  double rate = GetParam();
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(10.0);
  cfg.seed = 5;
  cfg.uniform_error_rate = rate;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  EXPECT_GT(res.flows[0].delivered, 10);
  if (rate > 0) {
    EXPECT_GT(res.channel_error_losses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, LossSweep,
                         ::testing::Values(0.0, 0.01, 0.02, 0.05, 0.10));

// ---------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DeterministicAcrossRepeatedRuns) {
  ExperimentConfig cfg;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(4.0);
  cfg.seed = GetParam();
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 16});
  auto a = run_experiment(cfg);
  auto b = run_experiment(cfg);
  EXPECT_EQ(a.flows[0].delivered, b.flows[0].delivered);
  EXPECT_EQ(a.flows[0].retransmissions, b.flows[0].retransmissions);
  EXPECT_EQ(a.flows[0].cwnd_trace.size(), b.flows[0].cwnd_trace.size());
  EXPECT_EQ(a.phy_collisions, b.phy_collisions);
  EXPECT_EQ(a.ifq_drops, b.ifq_drops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u));

// ---------------------------------------------------------------------------

class DraiTableSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DraiTableSweep, ApplyIsMonotoneInDrai) {
  auto [drai, cwnd] = GetParam();
  // For any window, a higher DRAI level never yields a smaller next window.
  Segments lower =
      apply_drai_to_cwnd(static_cast<std::uint8_t>(drai), Segments(cwnd));
  if (drai < kDraiAggressiveAccel) {
    Segments higher =
        apply_drai_to_cwnd(static_cast<std::uint8_t>(drai + 1), Segments(cwnd));
    EXPECT_LE(lower, higher);
  }
  EXPECT_GE(lower, Segments(1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Table52, DraiTableSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1.0, 2.0, 4.0, 7.5, 32.0)));

}  // namespace
}  // namespace muzha
