// Persistent worker pool for sharded runs.
//
// A sharded run partitions one simulation into K independent event cores
// ("shards"). The executor owns min(K, jobs) OS threads and maps shard s to
// worker s % jobs — a STICKY assignment that never changes for the lifetime
// of the executor. Stickiness is load-bearing twice over:
//
//  - Determinism: every event of shard s executes on the same thread in the
//    same order regardless of how many workers exist, so per-thread state
//    (most importantly the thread_local PacketArena) sees an identical
//    allocation/release sequence whether jobs=1 or jobs=K.
//  - Arena ownership: PacketArena DCHECKs that a packet is released by the
//    arena that allocated it. All allocation AND teardown for a shard's
//    Network must happen on its owner worker — which is why run_phase() is
//    also used for destruction, and why the threads persist across the whole
//    build → run → collect → destroy lifecycle instead of being pooled per
//    phase.
//
// run_phase(fn) invokes fn(shard) for every shard on its owner worker and
// blocks the caller until all complete. Between phases the orchestrator
// only collects results on the calling thread, so shared data structures
// need no locking at all: workers and orchestrator alternate, never
// overlap. The handoff is a mutex + condvar generation counter rather than
// std::barrier — the orchestrator must run BETWEEN phases, not as a barrier
// participant, and the explicit generation makes the happens-before edges
// obvious to TSan and to readers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace muzha {

class ShardExecutor {
 public:
  // Spawns min(shards, jobs) workers (at least one). jobs <= 0 is clamped
  // to 1.
  ShardExecutor(int shards, int jobs);
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;
  // Joins the workers. Callers must have already torn down per-shard state
  // via run_phase — the destructor runs no user code.
  ~ShardExecutor();

  // Runs fn(shard) for every shard on that shard's owner worker; returns
  // when all K calls have completed. Must be called from the orchestrator
  // thread (never from inside a phase). Exceptions must not escape fn —
  // simulation code reports failure via MUZHA_ASSERT, which aborts.
  void run_phase(const std::function<void(int shard)>& fn);

 private:
  void worker_main(int worker);

  const int shards_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // orchestrator -> workers
  std::condition_variable done_cv_;   // workers -> orchestrator
  const std::function<void(int)>* phase_fn_ = nullptr;  // valid while a
                                                        // phase is active
  std::uint64_t phase_gen_ = 0;  // bumped per run_phase; workers chase it
  int workers_done_ = 0;
  bool shutdown_ = false;
};

}  // namespace muzha
