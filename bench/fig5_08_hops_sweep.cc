// Figures 5.8-5.13: throughput (5.8-5.10), then number of retransmissions
// (5.11-5.13), vs number of hops for window_ in {4, 8, 32}, single FTP flow
// over an h-hop chain (Simulation 2). One sweep feeds both sets of tables:
// mean ± stddev over seed replications, all points executed concurrently by
// the batch runner (--jobs N, default all cores).
//
// Paper shape to reproduce:
//  - Throughput: Vegas wins below ~8 hops then flattens low; Muzha beats
//    NewReno/SACK by ~5-10%; throughput falls steeply with hops.
//  - Retransmissions: Vegas stays near zero at every length; NewReno/SACK
//    retransmit heavily (aggressive slow-start growth); Muzha stays lowest of
//    the window-probing protocols at short chains, with the gap narrowing as
//    the advertised window grows.
#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  const int windows[] = {4, 8, 32};
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4, 8}
                                           : std::vector<int>{4, 8, 16, 24, 32};
  const std::size_t seeds = args.quick ? 1 : 3;
  const Seconds duration(30.0);

  // One point per (window, hops, variant); the runner replicates each across
  // seeds and sweeps everything on the pool at once.
  BatchRunner runner({.jobs = args.jobs, .replications = seeds, .base_seed = 1});
  for (int window : windows) {
    for (int hops : hop_counts) {
      for (TcpVariant v : kPaperVariants) {
        runner.add_point(chain_single_flow(v, hops, window, duration));
      }
    }
  }
  auto results = runner.run();

  // One table per window, numbered first_fig, first_fig + 1, ...; cells are
  // metric / scale.
  auto print_tables = [&](int first_fig, const char* title, const char* unit,
                          double (*metric)(const ExperimentResult&),
                          double scale) {
    std::size_t point = 0;
    for (std::size_t w = 0; w < std::size(windows); ++w) {
      std::printf("\n=== Fig 5.%d: %s vs hops (window_=%d) ===\n",
                  first_fig + static_cast<int>(w), title, windows[w]);
      std::printf("%-8s", "hops");
      for (TcpVariant v : kPaperVariants) std::printf("%16s", variant_name(v));
      std::printf("   (%s, mean±sd over %zu seed%s)\n", unit, seeds,
                  seeds == 1 ? "" : "s");
      for (int hops : hop_counts) {
        std::printf("%-8d", hops);
        for (std::size_t i = 0; i < std::size(kPaperVariants); ++i) {
          ReplicatedStats s = replication_stats(results[point++], metric);
          std::printf("%16s", stat_cell(s, scale).c_str());
        }
        std::printf("\n");
      }
    }
  };
  print_tables(
      8, "Throughput", "kbps",
      [](const ExperimentResult& r) { return r.flows[0].throughput.value(); },
      1e3);
  print_tables(
      11, "Retransmissions", "retransmitted segments, 30 s",
      [](const ExperimentResult& r) {
        return static_cast<double>(r.flows[0].retransmissions);
      },
      1.0);
  return 0;
}
