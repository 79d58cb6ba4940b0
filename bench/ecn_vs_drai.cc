// Single-bit vs multi-level router feedback (the paper's Sec. 3.2 / 4.6
// argument: "ECN ... can be viewed as an extreme case of multi-level DRAI.
// But this approach is too brief for sender to gain further network
// status").
//
// Compares, over chains of growing length: plain NewReno (no router help),
// NewReno + RED/ECN (single-bit marks), and TCP Muzha (5-level DRAI).
// Runs are parallelised by run_batch (--jobs N).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  const int seeds = args.quick ? 1 : 3;
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4}
                                           : std::vector<int>{4, 8, 16};
  const TcpVariant contenders[] = {
      TcpVariant::kNewReno, TcpVariant::kNewRenoEcn, TcpVariant::kMuzha};

  std::vector<ExperimentConfig> configs;
  for (int hops : hop_counts) {
    for (TcpVariant v : contenders) {
      for (int s = 0; s < seeds; ++s) {
        configs.push_back(chain_single_flow(v, hops, 32, Seconds(30.0), 1 + s));
      }
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::printf("=== Feedback granularity: none vs 1-bit ECN vs 5-level DRAI "
              "(kbps / retx) ===\n%-8s", "hops");
  for (TcpVariant v : contenders) std::printf("%22s", variant_name(v));
  std::printf("\n");

  std::size_t run = 0;
  for (int hops : hop_counts) {
    std::printf("%-8d", hops);
    for (std::size_t i = 0; i < std::size(contenders); ++i) {
      double thr = 0, retx = 0;
      for (int s = 0; s < seeds; ++s) {
        const ExperimentResult& res = results[run++];
        thr += res.flows[0].throughput.value() / 1e3 / seeds;
        retx += static_cast<double>(res.flows[0].retransmissions) / seeds;
      }
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.1f / %.0f", thr, retx);
      std::printf("%22s", cell);
    }
    std::printf("\n");
  }
  return 0;
}
