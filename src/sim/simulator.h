// Simulator context: owns the scheduler and RNG.
//
// There is deliberately no global simulator instance; every component takes a
// Simulator& so multiple independent simulations can coexist in one process
// (benches run parameter sweeps this way).
#pragma once

#include <cstdint>
#include <utility>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace muzha {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return scheduler_.now(); }
  Scheduler& scheduler() { return scheduler_; }
  Rng& rng() { return rng_; }

  template <typename F>
  EventId schedule_at(SimTime t, F&& cb) {
    return scheduler_.schedule_at(t, std::forward<F>(cb));
  }
  template <typename F>
  EventId schedule_in(SimTime delay, F&& cb) {
    return scheduler_.schedule_in(delay, std::forward<F>(cb));
  }
  void cancel(EventId id) { scheduler_.cancel(id); }

  // Runs the simulation until `t_end`.
  void run_until(SimTime t_end) { scheduler_.run_until(t_end); }
  void run() { scheduler_.run(); }

  std::uint64_t events_executed() const {
    return scheduler_.events_executed();
  }

 private:
  Scheduler scheduler_;
  Rng rng_;
};

}  // namespace muzha
