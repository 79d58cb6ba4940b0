// Simulator micro-benchmarks (google-benchmark): event scheduling costs,
// channel fan-out, MAC exchange rate, and whole-stack simulation rate.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

#include "bench/bench_util.h"
#include "scenario/experiment.h"
#include "sim/scheduler.h"
#include "sim/timer.h"

namespace {

using namespace muzha;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    long sum = 0;
    for (int i = 0; i < n; ++i) {
      sched.schedule_at(SimTime::from_ns(i * 100), [&sum, i] { sum += i; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(65536);

void BM_SchedulerCancelHalf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) {
      ids.push_back(sched.schedule_at(SimTime::from_ns(i * 10), [] {}));
    }
    for (int i = 0; i < n; i += 2) sched.cancel(ids[i]);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerCancelHalf)->Arg(4096);

// Steady-state cancel churn: a sliding window of pending events where every
// step schedules one event and cancels the oldest — the protocol-timer
// pattern (RTO/CTS/ACK timers are nearly always cancelled, not fired).
void BM_SchedulerCancelHeavy(benchmark::State& state) {
  const int window = static_cast<int>(state.range(0));
  const int ops = 65536;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventId> ids(window);
    for (int i = 0; i < window; ++i) {
      ids[i] = sched.schedule_at(SimTime::from_ns(1000 + i), [] {});
    }
    for (int i = 0; i < ops; ++i) {
      sched.cancel(ids[i % window]);
      ids[i % window] =
          sched.schedule_at(SimTime::from_ns(1000 + window + i), [] {});
    }
    for (EventId id : ids) sched.cancel(id);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(256);

// Timer restart churn: reschedule an armed Timer (cancel + schedule through
// the Simulator facade), letting it actually expire every `window` restarts.
void BM_SchedulerTimerChurn(benchmark::State& state) {
  const int ops = 65536;
  for (auto _ : state) {
    Simulator sim(1);
    long fired = 0;
    Timer timer(sim, [&fired] { ++fired; });
    for (int i = 0; i < ops; ++i) {
      timer.schedule_in(SimTime::from_us(10));
      if (i % 64 == 63) sim.run_until(sim.now() + SimTime::from_us(20));
    }
    timer.cancel();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_SchedulerTimerChurn);

// One simulated second of a saturated chain, whole stack (PHY+MAC+AODV+TCP).
void BM_ChainSimulatedSecond(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto cfg = bench::chain_single_flow(TcpVariant::kNewReno, hops, 32,
                                        Seconds(1.0), /*seed=*/1);
    auto res = run_experiment(cfg);
    benchmark::DoNotOptimize(res.flows[0].delivered);
  }
}
BENCHMARK(BM_ChainSimulatedSecond)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Muzha-specific: full router-assist path enabled.
void BM_MuzhaChainSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = bench::chain_single_flow(TcpVariant::kMuzha, 8, 32,
                                        Seconds(1.0), 1);
    auto res = run_experiment(cfg);
    benchmark::DoNotOptimize(res.flows[0].delivered);
  }
}
BENCHMARK(BM_MuzhaChainSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): sanitized builds refuse to write
// --benchmark_out files, so an ASan/TSan run can never be recorded as a
// baseline under bench/baselines/ and compared against real timings.
int main(int argc, char** argv) {
#ifdef MUZHA_SANITIZED
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      std::fprintf(stderr,
                   "microbench: refusing --benchmark_out in a sanitized build "
                   "(MUZHA_SANITIZE is set); sanitizer timings must not "
                   "become baselines\n");
      return 1;
    }
  }
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
