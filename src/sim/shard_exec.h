// The one thread pool: runs a phase of independent items across cores.
//
// run_phase(fn) calls fn(item) once for every item in [0, K). It starts
// min(K, jobs) - 1 threads, works on the calling thread too, hands out the
// items from one counter and joins every thread before it returns, so
// nothing persists between phases and jobs == 1 runs every item inline.
//
// Items must share no mutable state, and each writes only its own result
// slot; the join publishes the slots to the caller. Then neither which
// thread runs an item nor in what order can reach a result. A parameter
// sweep (scenario/batch_runner.h) is one phase over its configs; a sharded
// run (scenario/sharded_experiment.h) is a build-and-run phase and a
// teardown phase over its shards.
#pragma once

#include <functional>

namespace muzha {

class ShardExecutor {
 public:
  // A pool for `shards` items (at least one) on at most `jobs` threads,
  // the caller among them; jobs <= 0 means one per hardware core.
  ShardExecutor(int shards, int jobs);

  // Runs fn(shard) for every shard and returns when all calls have
  // finished. An exception thrown by one call does not stop the others:
  // after the join, the one from the lowest-numbered shard that threw is
  // rethrown here.
  void run_phase(const std::function<void(int shard)>& fn) const;

 private:
  int shards_;
  int threads_;
};

}  // namespace muzha
