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
//     must reproduce them run-to-run and for every shard_jobs value — the
//     (tx_time, src_shard, seq) merge order is the only cross-shard channel
//     and is independent of thread scheduling.
//
//  2. Causality: the conservative lookahead keeps every boundary frame in
//     the receiving shard's future. Channel::deliver MUZHA_DCHECKs the
//     invariant (and the scheduler MUZHA_ASSERTs it unconditionally); the
//     property test runs randomized boundary traffic between tightly
//     coupled shards under those checks, and the death test proves the trap
//     actually fires when the lookahead is forced past the propagation
//     bound.
//
// Plus unit tests of the merge order, the territory geometry and the
// lookahead bound.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/sharded_experiment.h"
#include "tests/experiment_equal.h"
#include "tests/experiment_hash.h"

namespace muzha {
namespace {

using muzha::testing::expect_results_identical;
using muzha::testing::hash_result;

// ---------------------------------------------------------------------------
// Deterministic merge order: (tx_time, src_shard, seq), a strict total order.

BoundaryMessage msg(std::int64_t t_ns, std::uint32_t shard, std::uint64_t seq) {
  BoundaryMessage m;
  m.tx_time = SimTime::from_ns(t_ns);
  m.src_shard = shard;
  m.seq = seq;
  return m;
}

TEST(ShardMergeOrder, TimeDominates) {
  EXPECT_TRUE(boundary_message_order(msg(1, 9, 9), msg(2, 0, 0)));
  EXPECT_FALSE(boundary_message_order(msg(2, 0, 0), msg(1, 9, 9)));
}

TEST(ShardMergeOrder, ShardBreaksTimeTies) {
  EXPECT_TRUE(boundary_message_order(msg(5, 0, 7), msg(5, 1, 0)));
  EXPECT_FALSE(boundary_message_order(msg(5, 1, 0), msg(5, 0, 7)));
}

TEST(ShardMergeOrder, SeqBreaksShardTies) {
  EXPECT_TRUE(boundary_message_order(msg(5, 2, 3), msg(5, 2, 4)));
  EXPECT_FALSE(boundary_message_order(msg(5, 2, 4), msg(5, 2, 3)));
}

TEST(ShardMergeOrder, IsStrict) {
  // Irreflexive on equal keys — required by std::sort.
  EXPECT_FALSE(boundary_message_order(msg(5, 2, 3), msg(5, 2, 3)));
}

// ---------------------------------------------------------------------------
// Territory geometry and the lookahead bound.

TEST(ShardGeometry, BoxGapIsZeroWhenTouchingOrOverlapping) {
  Rect a{0.0, 100.0, 0.0, 100.0};
  EXPECT_EQ(rect_gap(a, Rect{50.0, 150.0, 50.0, 150.0}), 0.0);
  EXPECT_EQ(rect_gap(a, Rect{100.0, 200.0, 0.0, 100.0}), 0.0);
}

TEST(ShardGeometry, BoxGapAxisAndDiagonal) {
  Rect a{0.0, 100.0, 0.0, 100.0};
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{400.0, 500.0, 0.0, 100.0}), 300.0);
  // Diagonal separation: dx = 300, dy = 400 -> 500.
  EXPECT_DOUBLE_EQ(rect_gap(a, Rect{400.0, 500.0, 500.0, 600.0}), 500.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(rect_gap(Rect{400.0, 500.0, 0.0, 100.0}, a), 300.0);
}

TEST(ShardGeometry, PointToBoxDistance) {
  Rect b{100.0, 200.0, 100.0, 200.0};
  EXPECT_EQ(rect_distance({150.0, 150.0}, b), 0.0);  // inside
  EXPECT_DOUBLE_EQ(rect_distance({0.0, 150.0}, b), 100.0);
  EXPECT_DOUBLE_EQ(rect_distance({70.0, 60.0}, b), 50.0);  // 30-40-50
}

TEST(ShardLookahead, PropagationAcrossTheGap) {
  // 300 m at 3e8 m/s is exactly 1000 ns.
  std::vector<Rect> territories{{0.0, 100.0, 0.0, 100.0},
                                {400.0, 500.0, 0.0, 100.0}};
  SimTime l = conservative_lookahead(territories, Meters(550.0),
                                     MetersPerSecond(3.0e8));
  EXPECT_EQ(l, SimTime::from_ns(1000));
}

TEST(ShardLookahead, TouchingTerritoriesFloorAtOneNanosecond) {
  std::vector<Rect> territories{{0.0, 100.0, 0.0, 100.0},
                                {100.0, 200.0, 0.0, 100.0}};
  SimTime l = conservative_lookahead(territories, Meters(550.0),
                                     MetersPerSecond(3.0e8));
  EXPECT_EQ(l, SimTime::from_ns(1));
}

TEST(ShardLookahead, DecoupledShardsHaveNoBound) {
  // Gap 600 m > carrier-sense range 550 m: no frame ever crosses, so
  // nothing bounds the window and the run goes to its horizon in one.
  std::vector<Rect> territories{{0.0, 100.0, 0.0, 100.0},
                                {700.0, 800.0, 0.0, 100.0}};
  SimTime l = conservative_lookahead(territories, Meters(550.0),
                                     MetersPerSecond(3.0e8));
  EXPECT_EQ(l, SimTime::max());
}

TEST(ShardLookahead, MinimumOverCoupledPairsOnly) {
  // Three territories: (0,1) gap 300 -> 1000 ns, (1,2) gap 600 decoupled,
  // (0,2) gap 1200 decoupled. The minimum is over coupled pairs only.
  std::vector<Rect> territories{{0.0, 100.0, 0.0, 100.0},
                                {400.0, 500.0, 0.0, 100.0},
                                {1100.0, 1200.0, 0.0, 100.0}};
  SimTime l = conservative_lookahead(territories, Meters(550.0),
                                     MetersPerSecond(3.0e8));
  EXPECT_EQ(l, SimTime::from_ns(1000));
}

// ---------------------------------------------------------------------------
// shards > 1: golden pins plus run-to-run and thread-count invariance.

// Four-district mobile city: strips 1000 m wide separated by 1100 m of
// empty ground (decoupled at carrier-sense range, so the lookahead has no
// bound and each run is one window), one Muzha flow per district.
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

TEST(ShardDeterminism, DecoupledCityIsWindowInvariant) {
  // Decoupled territories exchange no frame, so cutting the run into 1 ms
  // windows must change nothing: the one-window default and 3000 barriers
  // give bitwise identical results at K = 2 and K = 4.
  ShardDebugOptions one_ms;
  one_ms.force_lookahead = SimTime::from_ms(1);
  for (int shards : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ExperimentConfig cfg = district_city();
    cfg.shards = shards;
    expect_results_identical(run_experiment(cfg),
                             run_sharded_experiment(cfg, one_ms));
  }
}

// ---------------------------------------------------------------------------
// Coupled shards: cross-boundary physics and the causality property.

// Two dense static clusters `gap` metres apart (both within carrier-sense
// coupling for gap < 550), one flow inside each cluster. At two shards each
// district strip is one territory; every transmission near the boundary
// ships to the other shard and interferes there.
// muzha-lint: allow(raw-unit-double): test-matrix convenience parameter, converted to Meters below
ExperimentConfig coupled_clusters(std::uint64_t seed, double gap_m,
                                  SimTime duration) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 20;
  cfg.field.districts = 2;
  cfg.field.district_gap = Meters(gap_m);
  cfg.field.width = Meters(2 * 150.0 + gap_m);  // strips 150 m wide
  cfg.field.height = Meters(400.0);
  cfg.field.mobile = false;
  cfg.duration = duration;
  cfg.seed = seed;
  cfg.static_routing = true;
  cfg.flows = make_random_district_flows(2, cfg.field, TcpVariant::kNewReno,
                                         seed ^ 0xF10Eull,
                                         SimTime::from_ms(1));
  return cfg;
}

TEST(ShardCausality, RandomBoundaryTrafficHoldsTheInvariant) {
  // Randomized coupled boundary traffic, microsecond-scale lookahead, many
  // barrier rounds. Channel::deliver MUZHA_DCHECKs that every injected
  // frame arrives in the receiver's future, and Scheduler::schedule_at
  // MUZHA_ASSERTs it unconditionally — surviving the run IS the property.
  // Identical results across worker counts then pin the merge order.
  for (std::uint64_t seed : {3ull, 14ull, 159ull}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ExperimentConfig cfg = coupled_clusters(seed, 300.0, SimTime::from_ms(60));
    cfg.shards = 2;
    ExperimentResult a = run_experiment(cfg);
    ExperimentResult b = run_experiment(cfg);
    expect_results_identical(a, b);
    cfg.shard_jobs = 1;
    expect_results_identical(a, run_experiment(cfg));
  }
}

TEST(ShardCausality, CrossShardTrafficReachesTheOtherShard) {
  // A flow whose source and destination land in different shards: frames
  // relay through the boundary exchange (the 200 m gap is within the 250 m
  // decode range, so BFS routes straight across the gap). Delivery > 0
  // proves boundary messages carry real traffic, not just interference.
  ExperimentConfig cfg = coupled_clusters(5, 200.0, SimTime::from_ms(400));
  cfg.flows.clear();
  FlowSpec f;
  f.variant = TcpVariant::kNewReno;
  f.src = 0;  // node 0 -> district 0 -> left shard
  f.dst = 1;  // node 1 -> district 1 -> right shard
  f.start_time = SimTime::from_ms(1);
  f.window = 8;
  cfg.flows.push_back(f);
  cfg.shards = 2;
  ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.flows[0].delivered, 0);
  expect_results_identical(r, run_experiment(cfg));
}

TEST(ShardCausalityDeath, ForcedOversizedLookaheadTripsTheTrap) {
  // Force the window three orders of magnitude past the propagation bound:
  // a frame transmitted early in a 5 ms window reaches the other shard's
  // past, and the run must die — on the causality MUZHA_DCHECK in
  // Channel::deliver when debug checks are compiled in, else on the
  // scheduler's unconditional cannot-schedule-in-the-past MUZHA_ASSERT.
  ExperimentConfig cfg = coupled_clusters(3, 300.0, SimTime::from_ms(60));
  cfg.shards = 2;
  ShardDebugOptions dbg;
  dbg.force_lookahead = SimTime::from_ms(5);
  EXPECT_DEATH(run_sharded_experiment(cfg, dbg),
               "causality violated|in the past");
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

}  // namespace
}  // namespace muzha
