// Figures 5.2-5.7: congestion-window evolution of each variant over 4-, 8-
// and 16-hop chains (Simulation 1). Two views per figure pair: the full
// 0-10 s run (sampled every 100 ms) and the 0-2 s start-up detail (sampled
// every 25 ms).
//
// Paper shape to reproduce: Muzha rises promptly and stabilizes (with some
// vibration) and holds its window through random loss; Vegas sits flat and
// low; NewReno/SACK saw-tooth hard and collapse repeatedly. Runs are
// parallelised by run_batch (--jobs N).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace {

void print_trace(const char* label, const muzha::TimeSeries& trace,
                 muzha::Seconds t_end, muzha::Seconds step) {
  std::printf("%s t_s:", label);
  // Step-interpolate the change-event series onto a regular grid.
  std::size_t idx = 0;
  double v = 0.0;
  for (double t = 0.0; t <= t_end.value() + 1e-9; t += step.value()) {
    while (idx < trace.size() && trace[idx].t.value() <= t) {
      v = trace[idx].value;
      ++idx;
    }
    std::printf(" %.1f", v);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  std::vector<int> hop_counts = args.quick ? std::vector<int>{4}
                                           : std::vector<int>{4, 8, 16};
  const int window = 32;  // let the variants show their window dynamics
  const Seconds duration(10.0);

  std::vector<ExperimentConfig> configs;
  for (int hops : hop_counts) {
    for (TcpVariant v : kPaperVariants) {
      configs.push_back(
          chain_single_flow(v, hops, window, duration, /*seed=*/1));
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (int hops : hop_counts) {
    int fig = hops == 4 ? 2 : (hops == 8 ? 4 : 6);
    std::printf("\n=== Fig 5.%d/5.%d: CWND vs time, %d-hop chain ===\n", fig,
                fig + 1, hops);
    for (TcpVariant v : kPaperVariants) {
      const FlowResult& f = results[run++].flows[0];
      char label[64];
      std::snprintf(label, sizeof(label), "%-8s [0-10s]", variant_name(v));
      print_trace(label, f.cwnd_trace, duration, Seconds(0.1));
      std::snprintf(label, sizeof(label), "%-8s [0-2s] ", variant_name(v));
      print_trace(label, f.cwnd_trace, Seconds(2.0), Seconds(0.025));
      std::printf("%-8s summary: thr=%.1f kbps retx=%llu timeouts=%llu\n",
                  variant_name(v), f.throughput.value() / 1e3,
                  static_cast<unsigned long long>(f.retransmissions),
                  static_cast<unsigned long long>(f.timeouts));
    }
  }
  return 0;
}
