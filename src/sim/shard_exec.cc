#include "sim/shard_exec.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "sim/assert.h"

namespace muzha {

ShardExecutor::ShardExecutor(int shards, int jobs) : shards_(shards) {
  MUZHA_ASSERT(shards >= 1, "ShardExecutor needs at least one shard");
  if (jobs <= 0) {
    jobs = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  threads_ = std::min(shards, jobs);
}

void ShardExecutor::run_phase(const std::function<void(int shard)>& fn) const {
  // Each shard's error lands in its own slot, like its result, so the
  // rethrown error does not depend on the thread schedule either.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(shards_));
  // The counter only hands out indices; the join below, not this
  // fetch_add, publishes what the items wrote.
  std::atomic<int> next{0};
  auto work = [&] {
    for (;;) {
      const int s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_) return;
      try {
        fn(s);
      } catch (...) {
        errors[static_cast<std::size_t>(s)] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace muzha
