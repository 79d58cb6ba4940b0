// Property battery for the sharded event cores
// (src/scenario/sharded_experiment.h).
//
// A one-core run never enters the sharded engine: run_experiment() builds
// it on the calling thread through the same build_stack()/collect() every
// shard uses (src/scenario/stack.h), and its results are pinned in
// test_determinism.cc. This suite covers what only shards > 1 add:
//
//  1. Determinism: shards > 1 draws per-shard RNG streams (a different,
//     equally valid sample), so it is pinned by its own golden hashes and
//     must reproduce them run-to-run and for every shard_jobs value. The
//     shards share nothing while they run, so thread scheduling has no
//     way to reach the results.
//
//  2. Guard rails: run_experiment refuses a config the engine cannot
//     shard — a chain, fewer districts than shards, districts within
//     carrier-sense range of each other — at entry, with validate()'s
//     message naming the rule it breaks (its rows are in
//     test_scenario.cc's rule table).
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/city.h"
#include "scenario/experiment.h"
#include "tests/experiment_equal.h"
#include "tests/experiment_hash.h"

namespace muzha {
namespace {

using muzha::testing::expect_results_identical;
using muzha::testing::hash_result;

// ---------------------------------------------------------------------------
// shards > 1: golden pins plus run-to-run and thread-count invariance.

// Four-district mobile city: strips 1000 m wide separated by 1100 m of
// empty ground (decoupled at carrier-sense range, as every sharded run must
// be), one Muzha flow per district.
ExperimentConfig district_city() {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 120;
  cfg.field.districts = 4;
  cfg.field.district_gap = Meters(1100.0);
  cfg.field.width = Meters(4 * 1000.0 + 3 * 1100.0);
  cfg.field.height = Meters(1000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(3.0);
  cfg.seed = 42;
  cfg.flows = make_random_district_flows(4, cfg.field, TcpVariant::kMuzha, 7,
                                         SimTime::from_seconds(1.0));
  return cfg;
}

// Golden hashes for the district city at shards == 2 and 4, captured at pin
// time. The per-shard RNG streams make these distinct from the one-core
// hash of the same config — each is its own frozen sample. A shift means
// the sharded schedule changed; re-capture only with an intentional change.
constexpr std::uint64_t kGoldenDistrictCityShards2 = 0x6213A00032998930ull;
constexpr std::uint64_t kGoldenDistrictCityShards4 = 0x0F287CD4D54A9009ull;

TEST(ShardDeterminism, GoldenDistrictCityShards2Pinned) {
  ExperimentConfig cfg = district_city();
  cfg.shards = 2;
  ExperimentResult r = run_experiment(cfg);
  std::int64_t delivered = 0;
  for (const FlowResult& f : r.flows) delivered += f.delivered;
  EXPECT_GT(delivered, 0);  // the pin must freeze real traffic, not silence
  EXPECT_EQ(hash_result(r), kGoldenDistrictCityShards2);
}

TEST(ShardDeterminism, GoldenDistrictCityShards4Pinned) {
  ExperimentConfig cfg = district_city();
  cfg.shards = 4;
  ExperimentResult r = run_experiment(cfg);
  std::int64_t delivered = 0;
  for (const FlowResult& f : r.flows) delivered += f.delivered;
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(hash_result(r), kGoldenDistrictCityShards4);
}

// The sharded path the mobile AODV city above does not reach: static
// routes that each shard installs over the global positions. Captured at
// pin time like the two city pins; each config delivers traffic.
TEST(ShardDeterminism, GoldenStaticShardsPinned) {
  struct Pin {
    const char* name;
    int shards;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {"static K=2", 2, 0x20C42E1F4EDE6686ull},
      {"static K=4", 4, 0x8296E1CFB42C8B7Full},
  };
  for (const Pin& p : kPins) {
    SCOPED_TRACE(p.name);
    ExperimentConfig cfg = district_city();
    cfg.field.mobile = false;
    cfg.static_routing = true;
    cfg.shards = p.shards;
    ExperimentResult r = run_experiment(cfg);
    std::int64_t delivered = 0;
    for (const FlowResult& f : r.flows) delivered += f.delivered;
    EXPECT_GT(delivered, 0);
    EXPECT_EQ(hash_result(r), p.hash);
  }
}

TEST(ShardDeterminism, RepeatableAndJobsInvariant) {
  // Same config, shards = 2: twice at the default worker count, once on a
  // single worker, once on three (more workers than shards). All four must
  // be bitwise identical — OS scheduling must never reach the physics.
  ExperimentConfig cfg = district_city();
  cfg.shards = 2;
  ExperimentResult a = run_experiment(cfg);
  ExperimentResult b = run_experiment(cfg);
  expect_results_identical(a, b);
  cfg.shard_jobs = 1;
  expect_results_identical(a, run_experiment(cfg));
  cfg.shard_jobs = 3;
  expect_results_identical(a, run_experiment(cfg));
}

TEST(ShardDeterminism, FourShardsJobsInvariant) {
  ExperimentConfig cfg = district_city();
  cfg.shards = 4;
  ExperimentResult a = run_experiment(cfg);
  cfg.shard_jobs = 1;
  expect_results_identical(a, run_experiment(cfg));
  cfg.shard_jobs = 2;
  expect_results_identical(a, run_experiment(cfg));
}

// ---------------------------------------------------------------------------
// Engine guard rails.

TEST(ShardGuardDeath, RejectsShardedChainTopology) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 8});
  cfg.shards = 2;
  EXPECT_DEATH(run_experiment(cfg), "field topology");
}

TEST(ShardGuardDeath, RejectsMobileFieldWithFewerDistrictsThanShards) {
  ExperimentConfig cfg = district_city();  // 4 districts
  cfg.shards = 8;
  EXPECT_DEATH(run_experiment(cfg), "district");
  // Static fields follow the same rule: territories are district strips.
  cfg.field.mobile = false;
  cfg.field.districts = 1;
  cfg.shards = 2;
  EXPECT_DEATH(run_experiment(cfg), "district");
}

TEST(ShardGuardDeath, RejectsDistrictsWithinCarrierSenseRange) {
  // Channel::deliver drops a frame only beyond cs_range (550 m), so at a
  // 550 m gap a frame still reaches the other shard.
  ExperimentConfig cfg = district_city();
  cfg.field.district_gap = Meters(550.0);
  cfg.shards = 2;
  EXPECT_DEATH(run_experiment(cfg), "carrier-sense range");
}

}  // namespace
}  // namespace muzha
