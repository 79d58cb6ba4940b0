// The one build-and-collect path of an experiment.
//
// run_experiment() builds one Stack over every node on the calling thread;
// run_sharded_experiment() builds one Stack per shard, over that shard's
// nodes, on the pool thread that runs the shard. Both read their results
// back through collect(), so topology, motion, routing, router assistance,
// flows and result fields each exist in exactly one place. Programs run
// ExperimentConfigs; only those two runners and the tests that hook a run
// between build and collect call build_stack() and collect().
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "app/cbr.h"
#include "phy/position.h"
#include "scenario/experiment.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"

namespace muzha {

// One flow's endpoints on one Stack: the agent (and its cwnd tracer) on the
// source's stack, the sink (and its sampler) on the destination's. A stack
// that owns neither endpoint leaves the slot empty.
struct FlowInstance {
  std::unique_ptr<TcpAgent> agent;
  std::unique_ptr<TcpSink> sink;
  CwndTracer cwnd;
  std::unique_ptr<ThroughputSampler> sampler;
};

// What build_stack adds to one Network. The Network must outlive it.
struct Stack {
  Network* net = nullptr;
  std::vector<std::unique_ptr<RandomWaypointMobility>> mobility;
  std::vector<FlowInstance> flows;                // one slot per cfg.flows
  std::vector<std::unique_ptr<CbrApp>> cbr_apps;  // one slot per cfg.cbr_flows
};

// Initial position of every node of cfg's topology, in node order. A
// kRandomField draws from `rng`; chain and cross draw nothing.
std::vector<Position> node_positions(const ExperimentConfig& cfg, Rng& rng);

// Adds `members` (ascending indices into `positions`) to `net` under their
// global ids, then builds on them: routing, router assistance, loss, the
// TCP flows, the CBR load and, last, motion (a mobile field's nodes or a
// chain's moving relays). Static routes are computed over all of
// `positions`: each member gets the routes a one-core run gives it. cfg
// must be one that validate() accepts (scenario/experiment.h); build_stack
// checks nothing itself.
Stack build_stack(const ExperimentConfig& cfg, Network& net,
                  const std::vector<Position>& positions,
                  const std::vector<std::size_t>& members);

// The result of a run over `stacks`, which together own every node once.
ExperimentResult collect(const ExperimentConfig& cfg,
                         std::span<Stack* const> stacks);

}  // namespace muzha
