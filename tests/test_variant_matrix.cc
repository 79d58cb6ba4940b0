// Variant matrix over the variant table.
//
// Smoke: every TcpVariant completes a short 3-hop chain transfer with
// nonzero delivered bytes. Integration tests cover the paper's protagonists
// in depth; this guards the long tail (DOOR, ADTCP, Jersey, RoVegas, ECN,
// Westwood) against regressions that break basic delivery.
//
// Pins: every variant, end to end and bit for bit, over three configs that
// between them time out every sender and fast-retransmit every sender but
// Muzha (whose triple-dup-ACK paths conformance_muzha.cc drives).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "scenario/batch_runner.h"
#include "scenario/experiment.h"
#include "tests/experiment_hash.h"

namespace muzha {
namespace {

using muzha::testing::hash_result;

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

// ---------------------------------------------------------------------------
// End-to-end pins. Each variant table row runs three configs; hash_result
// (tests/experiment_hash.h) freezes each result. Captured before the Reno
// family came to share one fast-retransmit path, so they pin that the
// sharing changed no sender. If an intentional protocol change shifts a
// hash, re-capture and update the table in the same commit.

enum PinConfig : int { kChain4, kLossyChain8, kCross4, kPinConfigs };

const char* pin_config_name(int which) {
  switch (which) {
    case kChain4:
      return "4-hop chain";
    case kLossyChain8:
      return "8-hop chain, 2% loss";
    default:
      return "4-hop cross vs NewReno";
  }
}

ExperimentConfig pin_config(TcpVariant v, int which) {
  ExperimentConfig cfg;
  cfg.duration = SimTime::from_seconds(20.0);
  switch (which) {
    case kChain4:
      cfg.hops = 4;
      cfg.seed = 3;
      cfg.flows.push_back({v, 0, 4, SimTime::zero(), 32});
      break;
    case kLossyChain8:
      cfg.hops = 8;
      cfg.seed = 5;
      cfg.uniform_error_rate = 0.02;
      cfg.flows.push_back({v, 0, 8, SimTime::zero(), 32});
      break;
    default:
      // The variant crosses the horizontal arm; NewReno the vertical one.
      cfg.topology = TopologyKind::kCross;
      cfg.hops = 4;
      cfg.seed = 11;
      cfg.flows.push_back({v, 0, 4, SimTime::zero(), 32});
      cfg.flows.push_back({TcpVariant::kNewReno, 5, 8, SimTime::zero(), 32});
      break;
  }
  return cfg;
}

struct VariantPin {
  TcpVariant variant;
  std::uint64_t hash[kPinConfigs];  // indexed by PinConfig
};

constexpr VariantPin kVariantPins[] = {
    {TcpVariant::kTahoe,
     {0x7BD53FB0EFE0E515ull, 0x7EBB31A5D48E4386ull, 0x4576A01D4D03DF25ull}},
    {TcpVariant::kReno,
     {0x5AE13DE323941DB2ull, 0xFAC01847E0E6C5AAull, 0x2B861AA21F782AE7ull}},
    {TcpVariant::kNewReno,
     {0x7F3E6E187BDAA2C1ull, 0x117B5821811824BAull, 0x6C2D813BAD71F967ull}},
    {TcpVariant::kSack,
     {0x889A503AC248F27Aull, 0x87CEEC49CD377A67ull, 0x85DA0390217A463Aull}},
    {TcpVariant::kVegas,
     {0xA91B0AC6B0FB1A82ull, 0x9E7F4E99BB520CE7ull, 0x93704C8A2FD2039Full}},
    {TcpVariant::kMuzha,
     {0x4C338068F7B5178Dull, 0x42516F38DB25E883ull, 0x4CAFE2DC2D329356ull}},
    {TcpVariant::kDoor,
     {0x7F3E6E187BDAA2C1ull, 0x117B5821811824BAull, 0x4E4FF2AED691AC21ull}},
    {TcpVariant::kAdtcp,
     {0x669583DB93D5ADBFull, 0x6FB3CC9429340C9Bull, 0xB14992A775412C98ull}},
    {TcpVariant::kJersey,
     {0x55374A8BF421335Dull, 0x17D4A031EBD7B376ull, 0x16633002E06B899Full}},
    {TcpVariant::kRoVegas,
     {0x694607EFF69611C5ull, 0x272819E339722C01ull, 0x9147847FAA6D6D3Bull}},
    {TcpVariant::kNewRenoEcn,
     {0x388AAF423B64EE99ull, 0x728D59A1CF22BADDull, 0xBBA22B84DC024AE8ull}},
    {TcpVariant::kWestwood,
     {0x2FC41B601C4A1165ull, 0xE4C12581BC1BE2B6ull, 0x15C64399CD283DA1ull}},
};

TEST(VariantPins, EveryVariantPinnedEndToEnd) {
  ASSERT_EQ(std::size(kVariantPins), variant_table().size());
  std::vector<ExperimentConfig> configs;
  for (const VariantPin& pin : kVariantPins) {
    for (int c = 0; c < kPinConfigs; ++c) {
      configs.push_back(pin_config(pin.variant, c));
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, 0);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t p = 0; p < std::size(kVariantPins); ++p) {
    const VariantPin& pin = kVariantPins[p];
    EXPECT_EQ(pin.variant, variant_table()[p].variant);
    // The pins only guard the recovery paths they reach.
    bool timed_out = false;
    for (int c = 0; c < kPinConfigs; ++c) {
      const ExperimentResult& r = results[p * kPinConfigs + c];
      SCOPED_TRACE(std::string(variant_name(pin.variant)) + ", " +
                   pin_config_name(c));
      EXPECT_EQ(hash_result(r), pin.hash[c])
          << std::hex << std::uppercase << "0x" << hash_result(r);
      timed_out |= r.flows[0].timeouts > 0;
    }
    EXPECT_TRUE(timed_out) << variant_name(pin.variant);
  }
}

}  // namespace
}  // namespace muzha
