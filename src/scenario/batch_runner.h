// Parallel batch experiment execution.
//
// A BatchRunner takes a set of experiment points (topology x variant x ...)
// and runs each one `replications` times, one isolated Simulator per run,
// as one phase of the thread pool in sim/shard_exec.h: at most `jobs`
// threads, started for the batch and joined before it returns. Per-run
// seeds are derived deterministically from (base_seed, point_index,
// replication) via SplitMix64, so a sweep's results depend only on its
// point set and base seed — never on the number of threads or on
// completion order. Results come back in submission order. Every bench
// sweep sits on top of this.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/experiment.h"
#include "sim/rng.h"

namespace muzha {

// Seed for replication `replication` of point `point_index`: three chained
// SplitMix64 rounds, one per component, so every (base, point, replication)
// triple lands on an independent stream. This scheme is frozen — tests pin
// its outputs — because changing it silently re-seeds every saved sweep.
constexpr std::uint64_t derive_run_seed(std::uint64_t base_seed,
                                        std::size_t point_index,
                                        std::size_t replication) {
  std::uint64_t h = splitmix64(base_seed);
  h = splitmix64(h ^ static_cast<std::uint64_t>(point_index));
  h = splitmix64(h ^ static_cast<std::uint64_t>(replication));
  return h;
}

// Low-level primitive: run `configs` (seeds already set by the caller) on at
// most `jobs` threads and return results in submission order regardless of
// completion order. jobs <= 0 means one thread per hardware core. If a run
// throws, the others still run, and its exception is rethrown on the
// calling thread after the pool joins.
std::vector<ExperimentResult> run_batch(const std::vector<ExperimentConfig>& configs,
                                        int jobs);

struct BatchOptions {
  int jobs = 0;                   // worker threads; <= 0 = hardware cores
  std::size_t replications = 1;   // independent seeded runs per point
  std::uint64_t base_seed = 1;    // root of the per-run seed derivation
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts = {}) : opts_(opts) {}

  // Submits an experiment point; its `seed` field is ignored (overwritten by
  // the derivation). Returns the point's index.
  std::size_t add_point(ExperimentConfig cfg);

  std::size_t size() const { return points_.size(); }

  // Runs all points x replications on the pool. result[point][replication],
  // in submission order.
  std::vector<std::vector<ExperimentResult>> run() const;

 private:
  BatchOptions opts_;
  std::vector<ExperimentConfig> points_;
};

}  // namespace muzha
