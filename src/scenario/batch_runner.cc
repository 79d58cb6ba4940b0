#include "scenario/batch_runner.h"

#include "scenario/experiment.h"
#include "sim/shard_exec.h"

namespace muzha {

std::vector<ExperimentResult> run_batch(
    const std::vector<ExperimentConfig>& configs, int jobs) {
  std::vector<ExperimentResult> results(configs.size());
  if (configs.empty()) return results;
  // One item per config, each writing only its own result slot, so
  // submission order holds by construction.
  ShardExecutor(static_cast<int>(configs.size()), jobs).run_phase([&](int i) {
    const auto slot = static_cast<std::size_t>(i);
    results[slot] = run_experiment(configs[slot]);
  });
  return results;
}

std::size_t BatchRunner::add_point(ExperimentConfig cfg) {
  points_.push_back(std::move(cfg));
  return points_.size() - 1;
}

std::vector<std::vector<ExperimentResult>> BatchRunner::run() const {
  const std::size_t reps = opts_.replications == 0 ? 1 : opts_.replications;
  // Flatten points x replications into one run list (replication-major within
  // each point) so the pool load-balances across everything at once.
  std::vector<ExperimentConfig> flat;
  flat.reserve(points_.size() * reps);
  for (std::size_t p = 0; p < points_.size(); ++p) {
    for (std::size_t r = 0; r < reps; ++r) {
      ExperimentConfig cfg = points_[p];
      cfg.seed = derive_run_seed(opts_.base_seed, p, r);
      flat.push_back(std::move(cfg));
    }
  }
  std::vector<ExperimentResult> flat_results = run_batch(flat, opts_.jobs);
  std::vector<std::vector<ExperimentResult>> out(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    out[p].reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      out[p].push_back(std::move(flat_results[p * reps + r]));
    }
  }
  return out;
}

}  // namespace muzha
