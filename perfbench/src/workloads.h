// The benchmark's workloads: each is a run set of ExperimentConfigs generated
// from the workload seed. The simulator only ever sees these configs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/experiment.h"

namespace perfbench {

struct Experiment {
  std::string label;  // e.g. "Muzha/h8/loss0.01", "city/0"
  muzha::ExperimentConfig cfg;
  int hops = 0;  // chain length; 0 for the city field
};

struct Workload {
  std::string name;
  std::vector<Experiment> runs;
  // Percentile of the per-config median run times reported as run_ms_tail:
  // the highest that leaves at least ten configs beyond it. The sample
  // count is the run set's size, so it does not change with speed.
  double tail_percentile = 90.0;
  // Pending-event depth the scheduler microbench holds, matched to the
  // number of timers the workload keeps armed.
  int event_depth = 64;
};

// Builds the named workload's run set from `seed`. Returns false for an
// unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload& out);

// A config's zero-duration twin: same build, no simulated time, so its wall
// time is the set-up cost before the first event.
muzha::ExperimentConfig setup_twin(const muzha::ExperimentConfig& cfg);

// The 1000-node, four-district mobile city of bench/bench_shard.cc's
// BM_CityRun, for the given simulated duration and seeds.
muzha::ExperimentConfig city_config(double duration_s, std::uint64_t seed,
                                    std::uint64_t flow_seed, int shards);

// One line describing a config (seed, flows, endpoints). The self-test
// compares these across seeds.
std::string describe(const Experiment& e);

}  // namespace perfbench
