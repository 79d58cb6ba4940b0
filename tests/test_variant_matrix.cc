// Smoke matrix: every TcpVariant completes a short 3-hop chain transfer with
// nonzero delivered bytes. Integration tests cover the paper's protagonists
// in depth; this guards the long tail (DOOR, ADTCP, Jersey, RoVegas, ECN,
// Westwood) against regressions that break basic delivery.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/experiment.h"

namespace muzha {
namespace {

std::vector<TcpVariant> all_variants() {
  std::vector<TcpVariant> out;
  for (const VariantInfo& v : variant_table()) out.push_back(v.variant);
  return out;
}

class VariantMatrix : public ::testing::TestWithParam<TcpVariant> {};

TEST_P(VariantMatrix, DeliversOverThreeHopChain) {
  ExperimentConfig cfg;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 1;
  cfg.flows.push_back({GetParam(), 0, 3, SimTime::zero(), 8});
  ExperimentResult res = run_experiment(cfg);
  const FlowResult& f = res.flows[0];
  EXPECT_GT(f.delivered, 0) << variant_name(GetParam());
  EXPECT_GT(f.throughput, BitsPerSecond(0.0)) << variant_name(GetParam());
  EXPECT_GE(f.packets_sent, static_cast<std::uint64_t>(f.delivered))
      << variant_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantMatrix,
                         ::testing::ValuesIn(all_variants()),
                         [](const ::testing::TestParamInfo<TcpVariant>& info) {
                           std::string n = variant_name(info.param);
                           // Sanitise for gtest names ("NewReno+ECN").
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace muzha
