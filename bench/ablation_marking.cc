// Ablation: value of Muzha's marked/unmarked loss discrimination (Sec. 4.7).
//
// Sweeps a uniform random per-frame loss rate over an 8-hop chain and
// compares (a) Muzha with discrimination, (b) Muzha treating every triple
// dup-ACK as congestion, and (c) NewReno. The gap between (a) and (b)
// isolates what the router-assisted marking buys under random loss.
// Runs are parallelised by run_batch (--jobs N).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace muzha;
  using namespace muzha::bench;

  BenchArgs args = parse_bench_args(argc, argv);
  const double error_rates[] = {0.0, 0.01, 0.03, 0.05};
  const int seeds = args.quick ? 1 : 3;
  const int hops = 8;
  const Seconds duration(30.0);

  std::printf("=== Ablation: random-loss discrimination, %d-hop chain ===\n",
              hops);
  std::printf("%-10s %18s %18s %14s   (kbps; halvings = marked-loss events)\n",
              "loss rate", "Muzha", "Muzha(no-disc)", "NewReno");
  std::vector<ExperimentConfig> configs;
  for (double er : error_rates) {
    for (int s = 0; s < seeds; ++s) {
      for (int mode = 0; mode < 3; ++mode) {
        ExperimentConfig cfg = chain_single_flow(
            mode == 2 ? TcpVariant::kNewReno : TcpVariant::kMuzha, hops, 32,
            duration, 1 + s);
        cfg.uniform_error_rate = er;
        cfg.muzha_loss_discrimination = (mode == 0);
        configs.push_back(cfg);
      }
    }
  }
  std::vector<ExperimentResult> results = run_batch(configs, args.jobs);

  std::size_t run = 0;
  for (double er : error_rates) {
    double thr[3] = {0, 0, 0};
    double halvings[2] = {0, 0};
    for (int s = 0; s < seeds; ++s) {
      for (int mode = 0; mode < 3; ++mode) {
        const ExperimentResult& res = results[run++];
        thr[mode] += res.flows[0].throughput.value() / 1e3;
        if (mode < 2) {
          halvings[mode] +=
              static_cast<double>(res.flows[0].marked_loss_events);
        }
      }
    }
    std::printf("%-10.2f %11.1f (%4.1f) %11.1f (%4.1f) %14.1f\n", er,
                thr[0] / seeds, halvings[0] / seeds, thr[1] / seeds,
                halvings[1] / seeds, thr[2] / seeds);
  }
  return 0;
}
