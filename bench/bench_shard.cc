// Sharded-execution benchmark (google-benchmark): one full city-scale
// experiment per item, on a configurable number of shard event cores.
//
// The shard count is a process-wide flag, not a benchmark argument, so the
// same benchmark NAMES exist in every recording and compare_bench.py lines
// them up directly:
//
//   bench_shard --shards=1 --benchmark_out=BENCH_shard_pre.json
//   bench_shard --shards=4 --benchmark_out=BENCH_shard_post.json
//   python3 bench/compare_bench.py BENCH_shard_pre.json BENCH_shard_post.json
//       (add --require 'BM_CityRun/nodes:1000/real_time=R' to gate the
//       ratio at R)
//
// Scenario model: a four-district mobile city. Districts are 2.5 km-wide
// random-waypoint strips separated by 1.1 km of empty ground — wider than
// carrier-sense range, as a sharded run requires, so each shard runs to the
// horizon on its own. Density is ~25 nodes/km² (≈5 rx-range neighbors, so
// AODV actually finds multi-hop routes); Muzha flows with router assistance
// give each core a production event mix. --shards accepts 1 up to the
// district count: a shard needs at least one district.
//
// The flag exists so the pre/post recordings (and the CI gate) measure the
// SAME binary: shards=1 builds and runs the city on the calling thread,
// shards=4 runs it on the parallel engine; both build through the same
// code path. Note the two are different RNG samples of the same scenario
// distribution (per-shard seed streams), so this compares throughput, not
// bit-identical work.
#include <benchmark/benchmark.h>

#include <charconv>
#include <cstdio>
#include <string_view>
#include <system_error>

#include "scenario/city.h"
#include "scenario/experiment.h"

namespace {

using namespace muzha;

constexpr int kDistricts = 4;

int g_shards = 1;

ExperimentConfig city_run_config(int nodes) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = nodes;
  cfg.field.districts = kDistricts;
  cfg.field.district_gap = Meters(1100.0);
  cfg.field.width =
      Meters(kDistricts * 2500.0 + (kDistricts - 1) * 1100.0);
  cfg.field.height = Meters(4000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(2.0);
  cfg.seed = 12345;
  cfg.flows = make_random_district_flows(8, cfg.field, TcpVariant::kMuzha,
                                         777, SimTime::from_ms(500));
  cfg.shards = g_shards;  // shard_jobs stays 0: one thread per shard
  return cfg;
}

// One complete experiment per item: build, run, collect, tear down. The
// item rate is experiments/second, so POST/PRE in compare_bench.py is the
// end-to-end speedup of sharding the run.
void BM_CityRun(benchmark::State& state) {
  ExperimentConfig cfg = city_run_config(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ExperimentResult r = run_experiment(cfg);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
// UseRealTime is load-bearing: at shards > 1 the main thread runs only its
// own share of the shards, so CPU time would count that share alone and
// the default CPU-time rate would be meaningless. Wall clock is the
// quantity sharding improves.
BENCHMARK(BM_CityRun)
    ->ArgNames({"nodes"})
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main, same contract as bench_channel.cc: sanitized builds refuse
// to write --benchmark_out files (sanitizer timings must never become
// baselines), plus --shards consumed before benchmark's own flag parsing.
// A --shards value that is not a whole number in [1, kDistricts] exits 2.
int main(int argc, char** argv) {
  int out = 1;
  for (int in = 1; in < argc; ++in) {
    std::string_view arg(argv[in]);
#ifdef MUZHA_SANITIZED
    if (arg.rfind("--benchmark_out", 0) == 0) {
      std::fprintf(stderr,
                   "bench_shard: refusing --benchmark_out in a sanitized "
                   "build (MUZHA_SANITIZE is set); sanitizer timings must "
                   "not become baselines\n");
      return 1;
    }
#endif
    if (arg.rfind("--shards=", 0) == 0) {
      const std::string_view value = arg.substr(9);
      const char* end = value.data() + value.size();
      auto [ptr, ec] = std::from_chars(value.data(), end, g_shards);
      if (ec != std::errc() || ptr != end || g_shards < 1 ||
          g_shards > kDistricts) {
        std::fprintf(stderr,
                     "bench_shard: --shards must be a whole number in "
                     "[1, %d], the city's district count\n",
                     kDistricts);
        return 2;
      }
      continue;  // strip: benchmark would reject the unknown flag
    }
    argv[out++] = argv[in];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
