#include "scenario/sharded_experiment.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/position.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "scenario/stack.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/shard_exec.h"

namespace muzha {

namespace {

// Everything one shard owns. Built and run in one executor phase and
// destroyed in another, so the shards take each step in parallel.
struct ShardState {
  std::unique_ptr<Network> net;
  Stack stack;
};

// Disjoint per-shard RNG streams derived from the experiment seed.
std::uint64_t shard_seed(const ExperimentConfig& cfg, int shard) {
  return splitmix64(splitmix64(cfg.seed) ^
                    (0x5AD5AD00ull + static_cast<std::uint64_t>(shard)));
}

}  // namespace

ExperimentResult run_sharded_experiment(const ExperimentConfig& cfg) {
  const int K = cfg.shards;
  MUZHA_ASSERT(K >= 2, "run_sharded_experiment needs shards >= 2");

  // --- Partition: draw the global placement and deal the x-ordered
  // district strips to shards contiguously. No network exists yet.
  Rng placement_rng(cfg.seed);
  const std::vector<Position> gpos = node_positions(cfg, placement_rng);
  const int D = cfg.field.districts;
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(K));
  for (std::size_t i = 0; i < gpos.size(); ++i) {
    members[static_cast<std::size_t>(district_of(cfg.field, i) * K / D)]
        .push_back(i);
  }
  for (const std::vector<std::size_t>& m : members) {
    MUZHA_ASSERT(!m.empty(), "a shard ended up with no nodes");
  }

  // --- Build and run, one phase: each shard builds its Network on
  // whichever thread claims it and runs it to the horizon there. The
  // shards are decoupled, so each runs alone. Node ids are GLOBAL indices,
  // and static routes are computed over the global positions.
  const int jobs = cfg.shard_jobs > 0 ? cfg.shard_jobs : K;
  const ShardExecutor exec(K, jobs);
  std::vector<std::unique_ptr<ShardState>> states(
      static_cast<std::size_t>(K));
  exec.run_phase([&](int s) {
    auto st = std::make_unique<ShardState>();
    st->net = std::make_unique<Network>(
        shard_seed(cfg, s),
        cfg.brute_force_channel ? ChannelMode::kBruteForce
                                : ChannelMode::kSpatialIndex);
    st->stack = build_stack(cfg, *st->net, gpos,
                            members[static_cast<std::size_t>(s)]);
    st->net->run_until(cfg.duration);
    states[static_cast<std::size_t>(s)] = std::move(st);
  });

  // --- Collect. Pure reads on the caller; the phase has joined its
  // threads, so every shard is quiescent.
  std::vector<Stack*> stacks;
  stacks.reserve(states.size());
  for (auto& st : states) stacks.push_back(&st->stack);
  ExperimentResult result = collect(cfg, stacks);

  // --- Teardown, in one more phase: the threads free the shards'
  // networks in parallel instead of the caller freeing them one by one.
  exec.run_phase(
      [&states](int s) { states[static_cast<std::size_t>(s)].reset(); });
  return result;
}

}  // namespace muzha
