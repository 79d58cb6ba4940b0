// Model-checked scheduler test: random interleavings of the public API
// cross-checked against a naive reference model.
//
// The reference keeps events in a std::multimap ordered, for ordinary keys,
// by plain (time, seq) FIFO and replays run_until/step semantics by hand.
// Chains are where the two differ in mechanism: the reference runs a real
// chain of links `step` apart, each scheduling the next, while the
// scheduler under test schedules only the chain's end with
// schedule_chain_end(). Non-final links are
// invisible (not fired, not executed, one pending link per chain), so any
// divergence in firing order, now(), pending_events() or events_executed()
// after any operation means the chain end fired somewhere its last link
// would not have. A failure names the generating seed, so it reproduces
// deterministically. This is also what gives us confidence the indexed-heap
// rewrite (eager cancellation, slot recycling, generation-checked handles)
// preserved the old scheduler's semantics.
//
// Deferred keys join the mix: defer() reserves a key (consuming its seq as
// schedule_in would), passed() is compared with the reference's view of the
// event now running, and schedule(key) pushes a callback under a reserved
// key later. The reference files such an event under the key it reserved,
// so a lead or seq taken at schedule(key) time instead of at defer() time
// fires out of place.
//
// So do follow keys, built from reserved keys (scheduled or not) and, by
// starter events, from the key of the event now running. The reference
// files a follow key after every ordinary key scheduled at or before its
// start's instant and by start seq among follow keys, so a follow() that
// takes a fresh seq, or drops its flag bit, fires out of place.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"

namespace muzha {
namespace {

// Reference model: the scheduler's contract, written the slow obvious way.
class ReferenceScheduler {
 public:
  // (time ns, the instant it was scheduled at, follow key?, seq). Ordinary
  // keys sort FIFO, which for them is (time, seq); a follow key sorts after
  // every ordinary key scheduled at or before its start's instant, before
  // every later one, and by start seq among follow keys.
  struct Key {
    std::int64_t time;
    std::int64_t origin;
    bool follow;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };

  // Runs after each visible event fires, like the callback a real event
  // carries; it may schedule.
  std::function<void(int token)> on_fire;

  std::uint64_t schedule_at(std::int64_t t_ns, int token) {
    return add(key_at(t_ns), Entry{token, 0, 0, next_handle_++});
  }

  // A deferred key is the key schedule_at would use now.
  Key defer(std::int64_t delay_ns) { return key_at(now_ns_ + delay_ns); }
  static Key follow(const Key& start, std::int64_t delay_ns) {
    return {start.time + delay_ns, start.time, true, start.seq};
  }
  const Key& running() const { return running_; }
  bool passed(const Key& key) const { return key < running_; }
  std::uint64_t schedule(const Key& key, int token) {
    return add(key, Entry{token, 0, 0, next_handle_++});
  }

  // A chain of `links` events `step_ns` apart, starting now. Each link
  // schedules the next; only the last one fires `token`.
  std::uint64_t schedule_chain(std::int64_t step_ns, std::uint32_t links,
                               int token) {
    return add(key_at(now_ns_ + step_ns),
               Entry{token, step_ns, links - 1, next_handle_++});
  }

  // True if the handle was pending (and is now removed), mirroring the
  // scheduler where cancelling a fired/cancelled id is a no-op. Cancelling
  // a chain cancels its current link.
  bool cancel(std::uint64_t handle) {
    auto it = by_handle_.find(handle);
    if (it == by_handle_.end()) return false;
    queue_.erase(it->second);
    by_handle_.erase(it);
    return true;
  }

  bool step(std::vector<int>& fired) {
    while (!queue_.empty()) {
      if (pop(fired)) return true;
    }
    return false;
  }

  void run_until(std::int64_t t_end_ns, bool t_end_is_max,
                 std::vector<int>& fired) {
    while (!queue_.empty()) {
      if (queue_.begin()->first.time > t_end_ns) {
        now_ns_ = t_end_ns;
        running_ = after_all(now_ns_);
        return;
      }
      pop(fired);
    }
    // Drained: the clock still advances to the horizon, except for the
    // run() = run_until(max) spelling which parks at the last event.
    if (now_ns_ < t_end_ns && !t_end_is_max) now_ns_ = t_end_ns;
    // Between runs, "now running" sorts after everything at now.
    running_ = after_all(now_ns_);
  }

  std::int64_t now_ns() const { return now_ns_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    int token;
    std::int64_t step_ns;        // chains: spacing of the links
    std::uint32_t links_after;   // chains: links still to come after this one
    std::uint64_t handle;
  };

  Key key_at(std::int64_t t_ns) { return {t_ns, now_ns_, false, next_seq_++}; }
  static Key after_all(std::int64_t t_ns) {
    return {t_ns, INT64_MAX, true, UINT64_MAX};
  }

  std::uint64_t add(const Key& key, const Entry& e) {
    by_handle_[e.handle] = queue_.emplace(key, e);
    return e.handle;
  }

  // Runs the earliest entry. Returns true if it was visible (not a
  // non-final chain link).
  bool pop(std::vector<int>& fired) {
    auto it = queue_.begin();
    now_ns_ = it->first.time;
    const Key key = it->first;
    const Entry e = it->second;
    queue_.erase(it);
    if (e.links_after > 0) {
      add(key_at(now_ns_ + e.step_ns),
          Entry{e.token, e.step_ns, e.links_after - 1, e.handle});
      return false;
    }
    by_handle_.erase(e.handle);
    running_ = key;
    ++executed_;
    fired.push_back(e.token);
    if (on_fire) on_fire(e.token);
    return true;
  }

  std::multimap<Key, Entry> queue_;
  std::unordered_map<std::uint64_t, std::multimap<Key, Entry>::iterator>
      by_handle_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_handle_ = 1;
  std::int64_t now_ns_ = 0;
  std::uint64_t executed_ = 0;
  Key running_ = after_all(0);  // the last visible event, or after all at now
};

// Chain steps, and the delays of the events that start chains. As in the
// MAC (20 us slots started at the end of a 50 us DIFS), a starter is
// scheduled further ahead than any step, so it runs before every link due
// at its instant. Ordinary delays are 0 or odd multiples of 10 ns, never a
// step: an ordinary event exactly a step ahead of a chain end is the
// scheduler's one documented departure from real links.
constexpr std::int64_t kSteps[] = {20, 40};
constexpr std::int64_t kMaxStep = 40;

void run_model_check(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Scheduler sched;
  ReferenceScheduler ref;

  std::vector<int> fired_real;
  std::vector<int> fired_ref;
  // Parallel handle lists; index i holds the same logical event in both. A
  // chain's entry is filled in when its starter fires.
  std::vector<EventId> real_ids;
  std::vector<std::uint64_t> ref_ids;
  int next_token = 0;

  // A starter's token maps to the chain it starts and that chain's index in
  // the handle lists.
  struct ChainSpec {
    std::int64_t step_ns;
    std::uint32_t links;
    int token;
    std::size_t id_index;
  };
  std::map<int, ChainSpec> chain_of_starter;
  // A follow starter's token maps to the event it schedules under
  // follow(its own key, delay_ns).
  struct FollowSpec {
    std::int64_t delay_ns;
    int token;
    std::size_t id_index;
  };
  std::map<int, FollowSpec> follow_of_starter;
  ref.on_fire = [&](int token) {
    if (auto it = chain_of_starter.find(token); it != chain_of_starter.end()) {
      const ChainSpec& c = it->second;
      ref_ids[c.id_index] = ref.schedule_chain(c.step_ns, c.links, c.token);
    }
    if (auto it = follow_of_starter.find(token);
        it != follow_of_starter.end()) {
      const FollowSpec& f = it->second;
      ref_ids[f.id_index] = ref.schedule(
          ReferenceScheduler::follow(ref.running(), f.delay_ns), f.token);
    }
  };
  auto record = [&fired_real](int token) {
    return [token, &fired_real] { fired_real.push_back(token); };
  };
  // Deferred keys, each reserved in both schedulers and scheduled at most
  // once, under the token drawn when it was reserved.
  struct Deferred {
    Scheduler::Key real;
    ReferenceScheduler::Key ref;
    int token;
    bool scheduled;
  };
  std::vector<Deferred> deferred;
  // The latest reserved keys, scheduled, passed or neither: follow() starts.
  std::vector<std::pair<Scheduler::Key, ReferenceScheduler::Key>> origins;
  // 0 or an odd multiple of 10 ns, never a chain step.
  auto draw_delay = [&rng](std::int64_t max_k) {
    const std::int64_t k = rng.uniform_int(0, max_k);
    return k == 0 ? 0 : (2 * k - 1) * 10;
  };

  for (int op = 0; op < ops; ++op) {
    const int choice = static_cast<int>(rng.uniform_int(0, 109));
    if (choice < 30) {
      // schedule_at / schedule_in with delays that force plenty of (time,
      // seq) ties: 0 and odd multiples of 10 ns.
      const std::int64_t k = rng.uniform_int(0, 6);
      const std::int64_t delay = k == 0 ? 0 : (2 * k - 1) * 10;
      const int token = next_token++;
      EventId id;
      if (choice < 15) {
        id = sched.schedule_at(SimTime::from_ns(sched.now().ns() + delay),
                               record(token));
      } else {
        id = sched.schedule_in(SimTime::from_ns(delay), record(token));
      }
      real_ids.push_back(id);
      ref_ids.push_back(ref.schedule_at(ref.now_ns() + delay, token));
    } else if (choice < 40) {
      // A starter: an ordinary event that, when it fires, starts a chain.
      const std::int64_t delay = kMaxStep + 10 * rng.uniform_int(1, 8);
      const std::int64_t step_ns = kSteps[rng.uniform_int(0, 1)];
      const auto links = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
      const int starter = next_token++;
      const int chain = next_token++;
      const std::size_t chain_index = real_ids.size() + 1;
      ChainSpec& spec = chain_of_starter[starter];
      spec = {step_ns, links, chain, chain_index};
      // Map nodes never move, so the starter captures a pointer to its spec
      // and stays within the inline callback budget.
      real_ids.push_back(sched.schedule_in(
          SimTime::from_ns(delay), [&, starter, spec = &spec] {
            fired_real.push_back(starter);
            const SimTime step = SimTime::from_ns(spec->step_ns);
            real_ids[spec->id_index] = sched.schedule_chain_end(
                sched.now() + step * spec->links, step, spec->links,
                record(spec->token));
          }));
      ref_ids.push_back(ref.schedule_at(ref.now_ns() + delay, starter));
      real_ids.push_back(kInvalidEventId);
      ref_ids.push_back(0);
    } else if (choice < 60 && !real_ids.empty()) {
      // Cancel a random handle: pending, fired or already-cancelled alike.
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(real_ids.size()) - 1));
      sched.cancel(real_ids[pick]);
      ref.cancel(ref_ids[pick]);
    } else if (choice < 70) {
      const bool advanced = sched.step();
      EXPECT_EQ(advanced, ref.step(fired_ref));
    } else if (choice < 78) {
      // defer(): 0 or an odd multiple of 10 ns, never a chain step.
      const std::int64_t k = rng.uniform_int(0, 10);
      const std::int64_t delay = k == 0 ? 0 : (2 * k - 1) * 10;
      deferred.push_back({sched.defer(SimTime::from_ns(delay)),
                          ref.defer(delay), next_token++, false});
      origins.emplace_back(deferred.back().real, deferred.back().ref);
      if (origins.size() > 32) origins.erase(origins.begin());
    } else if (choice < 84 && !deferred.empty()) {
      // schedule(key) for a reserved key, unless it has passed.
      Deferred& d = deferred[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(deferred.size()) - 1))];
      if (!d.scheduled && !sched.passed(d.real)) {
        d.scheduled = true;
        real_ids.push_back(sched.schedule(d.real, record(d.token)));
        ref_ids.push_back(ref.schedule(d.ref, d.token));
      }
    } else if (choice < 86) {
      sched.cancel(kInvalidEventId);
      sched.cancel((static_cast<EventId>(0x7fffffu) << 32) | 1u);  // never issued
    } else if (choice < 100) {
      const std::int64_t horizon = rng.uniform_int(0, 20) * 10;
      sched.run_until(SimTime::from_ns(sched.now().ns() + horizon));
      ref.run_until(ref.now_ns() + horizon, /*t_end_is_max=*/false, fired_ref);
    } else if (choice < 105 && !origins.empty()) {
      // follow() every reserved key due at one instant, by one delay, the
      // latest reserved first; schedule under each key that has not passed.
      const std::int64_t instant =
          origins[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(origins.size()) - 1))]
              .second.time;
      const std::int64_t delay = draw_delay(6);
      for (auto it = origins.rbegin(); it != origins.rend(); ++it) {
        if (it->second.time != instant) continue;
        const Scheduler::Key real =
            Scheduler::follow(it->first, SimTime::from_ns(delay));
        const ReferenceScheduler::Key ref_key =
            ReferenceScheduler::follow(it->second, delay);
        ASSERT_EQ(sched.passed(real), ref.passed(ref_key))
            << "op " << op << ", follow key at " << ref_key.time << " ns";
        if (sched.passed(real)) continue;
        const int token = next_token++;
        real_ids.push_back(sched.schedule(real, record(token)));
        ref_ids.push_back(ref.schedule(ref_key, token));
      }
    } else if (choice >= 105) {
      // A follow starter: an ordinary event that, when it fires, schedules
      // an event under follow(its own key, delay).
      const std::int64_t delay = draw_delay(6);
      const int starter = next_token++;
      FollowSpec& spec = follow_of_starter[starter];
      spec = {draw_delay(6), next_token++, real_ids.size() + 1};
      real_ids.push_back(sched.schedule_in(
          SimTime::from_ns(delay), [&, starter, spec = &spec] {
            fired_real.push_back(starter);
            real_ids[spec->id_index] = sched.schedule(
                Scheduler::follow(sched.running(),
                                  SimTime::from_ns(spec->delay_ns)),
                record(spec->token));
          }));
      ref_ids.push_back(ref.schedule_at(ref.now_ns() + delay, starter));
      real_ids.push_back(kInvalidEventId);
      ref_ids.push_back(0);
    }

    ASSERT_EQ(sched.now().ns(), ref.now_ns()) << "op " << op;
    ASSERT_EQ(sched.pending_events(), ref.pending()) << "op " << op;
    ASSERT_EQ(sched.events_executed(), ref.executed()) << "op " << op;
    ASSERT_EQ(fired_real, fired_ref) << "op " << op;
    for (const Deferred& d : deferred) {
      if (d.scheduled) continue;
      ASSERT_EQ(sched.passed(d.real), ref.passed(d.ref))
          << "op " << op << ", key at " << d.ref.time << " ns";
    }
    // A key, once passed, stays passed; keep only those still usable.
    std::erase_if(deferred, [&](const Deferred& d) {
      return d.scheduled || sched.passed(d.real);
    });
  }

  // Drain both and compare the complete firing history.
  sched.run();
  ref.run_until(INT64_MAX, /*t_end_is_max=*/true, fired_ref);
  EXPECT_EQ(sched.now().ns(), ref.now_ns());
  EXPECT_EQ(fired_real, fired_ref);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.events_executed(), ref.executed());
}

TEST(SchedulerModel, Seed1) { run_model_check(1, 4000); }
TEST(SchedulerModel, Seed2) { run_model_check(2, 4000); }
TEST(SchedulerModel, Seed3) { run_model_check(3, 4000); }
TEST(SchedulerModel, Seed42) { run_model_check(42, 4000); }
TEST(SchedulerModel, Seed2507) { run_model_check(2507, 4000); }

// Heavier single run: larger queue depths stress slot recycling, chunk
// growth and deep heap sifts rather than op-mix corner cases.
TEST(SchedulerModel, DeepQueueSeed7) { run_model_check(7, 20000); }

}  // namespace
}  // namespace muzha
