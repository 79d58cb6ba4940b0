// Per-layer microbenches, each timed from outside through the layer's public
// functions: Scheduler, Timer, ShardExecutor::run_phase, clone_packet,
// Channel::transmit, WirelessPhy::set_position, WirelessDevice::send,
// Node::send / device_send, BandwidthEstimator and Agent::receive on a
// TcpAgent. Every batch is one span of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct LayerConfig {
  std::uint64_t seed = 1;
  int event_depth = 64;     // pending events held by the scheduler bench
  double budget_s = 0.25;   // wall time per microbench
};

// Runs every layer microbench and appends one Metric per per-layer cost
// (the names listed under per_layer in BENCHMARK.json, except the counts,
// which come from the workload's own ExperimentResults). Human-readable
// detail lines (bases, batch counts) go to stdout.
std::vector<Metric> run_layer_benches(const LayerConfig& cfg, Tracer& tracer,
                                      int parent_span);

}  // namespace perfbench
