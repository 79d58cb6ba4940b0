// ShardExecutor (src/sim/shard_exec.h), the one thread pool: every item of
// a phase runs exactly once, jobs == 1 runs inline on the caller, and an
// item's exception reaches the caller only after every other item ran.
// The sweep and shard suites (test_batch_runner.cc, test_shard.cc) cover
// what runs on the pool; these cover the pool alone.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard_exec.h"

namespace muzha {
namespace {

TEST(ShardExecutor, RunsEveryItemOnce) {
  for (int shards : {1, 5, 64}) {
    for (int jobs : {0, 1, 3, 8}) {
      ShardExecutor exec(shards, jobs);
      // Each item bumps only its own slot, as real items write only theirs.
      std::vector<int> runs(static_cast<std::size_t>(shards), 0);
      for (int phase = 1; phase <= 2; ++phase) {
        exec.run_phase(
            [&runs](int s) { ++runs[static_cast<std::size_t>(s)]; });
        for (int s = 0; s < shards; ++s) {
          EXPECT_EQ(runs[static_cast<std::size_t>(s)], phase)
              << "shards " << shards << ", jobs " << jobs << ", item " << s;
        }
      }
    }
  }
}

TEST(ShardExecutor, OneJobRunsInlineOnTheCaller) {
  ShardExecutor exec(8, 1);
  std::vector<std::thread::id> ran_on(8);
  exec.run_phase([&ran_on](int s) {
    ran_on[static_cast<std::size_t>(s)] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ShardExecutor, RethrowsFirstErrorAfterEveryItemRan) {
  for (int jobs : {1, 4}) {
    ShardExecutor exec(8, jobs);
    std::vector<int> ran(8, 0);
    std::string caught;
    try {
      exec.run_phase([&ran](int s) {
        if (s == 3) throw std::runtime_error("item 3 failed");
        ran[static_cast<std::size_t>(s)] = 1;
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "item 3 failed") << "jobs " << jobs;
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 0, 1, 1, 1, 1}))
        << "jobs " << jobs;
  }
}

// With several failures, which one surfaces must not depend on the thread
// schedule: it is the lowest-numbered item's.
TEST(ShardExecutor, RethrowsLowestFailingItemWhateverTheJobs) {
  for (int jobs : {1, 2, 8}) {
    std::string caught;
    try {
      ShardExecutor(8, jobs).run_phase([](int s) {
        if (s == 2 || s == 6) throw std::runtime_error(std::to_string(s));
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "2") << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace muzha
