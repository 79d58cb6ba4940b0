// Shared by paper_figures and microbench.
#pragma once

#include <cstdint>

#include "scenario/experiment.h"

namespace muzha::bench {

// Single flow over an h-hop chain (Simulation 1 & 2 setup). run_batch runs
// the seed as given; BatchRunner overwrites it with a derived per-run seed.
inline ExperimentConfig chain_single_flow(TcpVariant v, int hops, int window,
                                          Seconds duration,
                                          std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = hops;
  cfg.duration = to_sim_time(duration);
  cfg.seed = seed;
  cfg.flows.push_back({v, 0, static_cast<std::size_t>(hops),
                       SimTime::zero(), window});
  return cfg;
}

}  // namespace muzha::bench
