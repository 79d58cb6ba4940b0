#include "sim/shard_exec.h"

#include <algorithm>

#include "sim/assert.h"

namespace muzha {

ShardExecutor::ShardExecutor(int shards, int jobs) : shards_(shards) {
  MUZHA_ASSERT(shards >= 1, "ShardExecutor needs at least one shard");
  const int n = std::min(shards, std::max(jobs, 1));
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardExecutor::~ShardExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardExecutor::run_phase(const std::function<void(int shard)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  MUZHA_DCHECK(phase_fn_ == nullptr, "run_phase re-entered from a phase");
  phase_fn_ = &fn;
  workers_done_ = 0;
  ++phase_gen_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] {
    return workers_done_ == static_cast<int>(threads_.size());
  });
  phase_fn_ = nullptr;
}

void ShardExecutor::worker_main(int worker) {
  std::uint64_t seen_gen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || phase_gen_ != seen_gen; });
      if (shutdown_) return;
      seen_gen = phase_gen_;
      fn = phase_fn_;
    }
    // Each worker walks ITS shards in ascending order, outside the lock:
    // workers run their disjoint shard sets concurrently.
    const int stride = static_cast<int>(threads_.size());
    for (int shard = worker; shard < shards_; shard += stride) {
      (*fn)(shard);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

}  // namespace muzha
